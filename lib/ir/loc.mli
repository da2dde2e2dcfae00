(** Source spans for IR nodes.

    Programs parsed from CRAFT text carry the 1-based line and column of
    each reference and loop header, so diagnostics can point back at the
    [.craft] source. Programs assembled through {!Builder} carry the
    [Synthetic] location instead — the builder has no source text to point
    at — and every consumer must stay total over it. *)

type t = Synthetic | Src of { line : int; col : int }

val src : line:int -> col:int -> t
val is_src : t -> bool
val line : t -> int option

(** Located spans order before synthetic ones, then by (line, col). *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
