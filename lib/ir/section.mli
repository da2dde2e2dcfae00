(** Bounded regular sections.

    The region of an array touched by a reference inside a loop nest is
    summarized per dimension as an arithmetic progression
    [lo, lo+step, ..., <= hi] ("triplet notation"). Sections are the data
    the stale-reference dataflow manipulates: write histories, freshness
    records and read regions are all sections, and staleness is decided by
    (conservative, but progression-exact per dimension) intersection tests.

    A section is [Empty], [Whole] (the sound fallback when subscripts are
    not affine or bounds are unknown), or one triplet per dimension. *)

type dim = private { lo : int; hi : int; step : int }
(** Invariant: [step >= 1] and [lo <= hi]. *)

type t = Empty | Whole | Dims of dim array

(** [dim ~lo ~hi ~step] normalizes: [hi] is clamped down to the last element
    actually reached, a single-element range gets step 1, and an inverted
    range is represented by the caller as {!Empty}.
    @raise Invalid_argument on [step <= 0] or [lo > hi]. *)
val dim : lo:int -> hi:int -> step:int -> dim

(** Single element per dimension. *)
val point : int array -> t

(** Dense box [lo.(d) .. hi.(d)] in every dimension; [Empty] if any
    dimension is inverted. *)
val box : lo:int array -> hi:int array -> t

val of_dims : dim list -> t
val whole : t
val empty : t
val is_empty : t -> bool

(** Number of elements ([None] for [Whole]). *)
val size : t -> int option

(** Exact per-dimension intersection emptiness test for two arithmetic
    progressions (solves the linear congruence); the conjunction over
    dimensions is conservative for the multidimensional set (it may report
    overlap for sections that differ only through cross-dimension
    correlation, which is sound for staleness). *)
val overlaps : t -> t -> bool

(** [contains outer inner]: sound containment test — [true] only when every
    element of [inner] is provably in [outer]. *)
val contains : t -> t -> bool

(** Over-approximate intersection: per dimension the progression
    intersection is exact (lcm step, CRT-aligned start); the product over
    dimensions over-approximates the true multidimensional intersection,
    which is the sound direction for "is the intersection contained in X"
    queries. *)
val inter : t -> t -> t

(** Smallest box-with-step covering both (used to bound union growth). *)
val hull : t -> t -> t

(** Does the section include the given point? *)
val mem : t -> int array -> bool

val equal : t -> t -> bool
val to_string : t -> string

(** {1 Construction from affine subscripts} *)

(** Range of one affine subscript when each variable ranges over the given
    triplet (variables absent from the environment make the result [None],
    i.e. unknown). Multiple varying variables widen the step to 1 unless
    their strides share a common divisor. *)
val range_of_affine :
  Affine.t -> (string * (int * int * int)) list -> dim option

(** Section of a multidimensional reference: one {!range_of_affine} per
    subscript; any unknown dimension collapses the result to [Whole]. The
    result {e over-approximates} the touched set (may-access). *)
val of_subscripts :
  Affine.t array -> (string * (int * int * int)) list -> t

(** Exact section of a reference, or [None] when exactness cannot be
    proven. The result is exact — usable as a {e must}-access set — when
    every subscript contains at most one varying variable, no variable
    varies in two subscripts, and every variable is bound. Must-sets are
    what the owner-computes alignment test needs on the writer side: using
    the may-set there would claim coverage a PE is not guaranteed to
    provide. *)
val of_subscripts_exact :
  Affine.t array -> (string * (int * int * int)) list -> t option
