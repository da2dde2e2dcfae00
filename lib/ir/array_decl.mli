(** Shared array declarations.

    Every array in a program carries its extents (elements are 64-bit
    words, the T3D prefetch granule), its CRAFT distribution, and whether
    it is shared. Non-shared ([private_]) arrays are task-private and never
    participate in coherence. Arrays start at a cache-line boundary — the
    alignment assumption the paper's group-spatial analysis requires
    (Section 4.2, enforced there "by specifying a compiler option"). *)

type t = private {
  name : string;
  dims : int array;
      (** extent of each dimension; column-major (Fortran) linearization:
          dimension 0 is contiguous in memory *)
  dist : Dist.t;
  shared : bool;
}

val make : ?dist:Dist.t -> ?shared:bool -> string -> int array -> t

val rank : t -> int

(** Total elements (64-bit words). *)
val elems : t -> int

(** Column-major linear element index of a point.
    @raise Invalid_argument on rank mismatch or out-of-range index. *)
val linear_index : t -> int array -> int

(** Inverse of {!linear_index}. *)
val point_of_linear : t -> int -> int array

val pp : Format.formatter -> t -> unit
