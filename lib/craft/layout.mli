(** Owner and local-offset arithmetic for distributed arrays.

    Realizes CRAFT's shared-data distribution directives (paper Section
    5.1): given an array declaration and the machine width, answer "which PE
    owns element (i1,...,ik)?" and "at which word offset inside that PE's
    portion does it live?". The stale-reference analysis additionally needs
    the {e owned section} of each PE to prove owner-computes alignment. *)

type t = private {
  decl : Ccdp_ir.Array_decl.t;
  n_pes : int;
  ddim : int option;  (** distributed dimension, [None] when replicated or on PE 0 *)
  chunk : int;  (** block width along [ddim] (meaningful for Block/Block_cyclic) *)
  per_pe_words : int;  (** words of this array held by each PE *)
}

val make : n_pes:int -> Ccdp_ir.Array_decl.t -> t

(** Owning PE of an element, allocation-free for the simulator's
    per-access path: [-1] for replicated data (every PE reads its own
    copy), otherwise the owning PE id, undistributed shared arrays living
    on PE 0. *)
val owner_id : t -> int array -> int

(** Word offset of an element inside its owner's portion of this array. *)
val local_offset : t -> int array -> int

(** Word stride of each dimension in the owner's portion: [local_offset]
    is the sum over [d] of [strides.(d)] times the element's index along
    [d] local to its owner. On one PE every local index is the index
    itself, so the offset of an in-bounds element is affine in it. *)
val strides : t -> int array

(** Section of the array owned by one PE (a triplet along the distributed
    dimension, whole elsewhere); [Whole] for replicated arrays, the whole
    array for PE 0 (and [Empty] for others) when undistributed. *)
val owned_section : t -> int -> Ccdp_ir.Section.t
