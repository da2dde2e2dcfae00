(** DTB Annex model.

    On the T3D every remote access goes through a small table that
    translates a global logical address to (PE number, local address); a
    prefetch to a new remote PE must first write an Annex entry, a
    significant overhead (paper Section 5.1). We model the Annex as an LRU
    cache of remote PE numbers: touching a PE already resident is free,
    otherwise the caller charges the set-up cost. *)

type t

(** [entries = 0] is an annex that holds nothing: every touch misses.
    @raise Invalid_argument on a negative size. *)
val create : entries:int -> t

(** [touch t pe] returns [true] when the translation was already resident
    (no set-up cost); inserts/refreshes it either way. *)
val touch : t -> int -> bool

(** The resident PEs, most recently touched first. *)
val resident : t -> int list
