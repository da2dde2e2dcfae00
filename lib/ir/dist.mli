(** CRAFT-style data distribution specifications.

    The Cray MPP Fortran (CRAFT) language distributes each dimension of a
    shared array independently (paper Section 5.1). We support the per-
    dimension patterns the case studies use, plus whole-array replication
    for read-only data. The owner/offset arithmetic lives in
    {!Ccdp_craft.Layout}; this module is only the specification carried by
    array declarations. *)

(** Distribution of one array dimension. *)
type dim_dist =
  | Block  (** contiguous chunks of ceil(n/p) elements per PE *)
  | Cyclic  (** element [i] lives on PE [i mod p] *)
  | Block_cyclic of int  (** blocks of the given width dealt round-robin *)
  | Degenerate  (** not distributed: the whole dimension stays together *)

type t =
  | Dims of dim_dist array
      (** per-dimension distribution; at most one non-[Degenerate] dimension
          is supported by the layout (as in the paper's case studies, which
          always distribute columns) *)
  | Replicated  (** every PE holds a private full copy (never stale) *)

(** All dimensions degenerate except the given one, which is [Block]. *)
val block_along : rank:int -> dim:int -> t

(** All dimensions degenerate except the given one, which is [Cyclic]. *)
val cyclic_along : rank:int -> dim:int -> t

val replicated : t

(** The index of the distributed dimension, if any. *)
val distributed_dim : t -> int option

val pp : Format.formatter -> t -> unit
