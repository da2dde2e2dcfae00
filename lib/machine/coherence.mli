(** Hardware-coherence bookkeeping for the snooping (MSI/MESI) and
    directory rival modes: the line-state encoding cache slots carry, and
    the directory's presence/owner table.

    The memory system implements the protocol transitions; this module
    only names the states and owns the directory data structure, so the
    property tests can assert over both without reaching into the
    runtime. *)

(** {1 Line states}

    Plain ints (the cache keeps a flat per-slot state array). Ordering is
    meaningful: [state > shared] means the holder has (or is the only
    candidate for) write permission — [exclusive] is the MESI clean-
    exclusive state, [modified] the dirty one. MSI never fills
    [exclusive]. *)

val invalid : int  (** 0 — also what {!Cache.line_state} reports on a miss *)

val shared : int  (** 1 *)

val exclusive : int  (** 2 (MESI only) *)

val modified : int  (** 3 *)

(** {1 Directory} *)

module Dir : sig
  (** Full-map directory (Censier-Feautrier): one presence bitset plus a
      dirty-owner register per cache line of the global address space.
      Presence words pack 63 PEs each, so membership tests and updates
      are single int operations; no allocation after [create]. *)
  type t

  val create : n_pes:int -> n_lines:int -> t
  val n_lines : t -> int

  (** Does [pe] hold a copy of [line]? *)
  val mem : t -> line:int -> pe:int -> bool

  val add : t -> line:int -> pe:int -> unit
  val remove : t -> line:int -> pe:int -> unit
  val sharer_count : t -> line:int -> int

  (** Visit sharers in ascending PE order (the deterministic invalidation
      order). *)
  val iter_sharers : t -> line:int -> (int -> unit) -> unit

  (** Sharer list in ascending PE order (tests/introspection). *)
  val sharers : t -> line:int -> int list

  val clear_line : t -> line:int -> unit

  (** The PE holding [line] Modified, or -1 when the line is clean
      everywhere. *)
  val owner : t -> line:int -> int

  val set_owner : t -> line:int -> int -> unit
end
