(** Array references.

    A reference is one syntactic occurrence of [A(e1, ..., ek)] in the
    program. Each carries a unique id assigned at program-construction time;
    the analysis phases key their classification and scheduling maps on
    those ids, and the runtime consults the maps when it executes the
    occurrence. *)

type t = { id : int; array_name : string; subs : Affine.t array; loc : Loc.t }

(** [loc] defaults to {!Loc.Synthetic}; {!Craft_parse} supplies the source
    span of the occurrence so diagnostics can point at [.craft] text. *)
val make : id:int -> ?loc:Loc.t -> string -> Affine.t array -> t

(** Substitute variables in every subscript (procedure inlining). The id is
    preserved — an inlined occurrence is still the same syntactic site for
    classification purposes; context-sensitive ids are produced by
    {!Program.inline} when needed. *)
val subst_env : t -> (string * Affine.t) list -> t

(** [with_id r id] re-keys a reference (used when cloning call sites). *)
val with_id : t -> int -> t

(** Uniformly generated (paper Section 4.2): same array, and every subscript
    pair has identical variable terms. *)
val uniformly_generated : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
