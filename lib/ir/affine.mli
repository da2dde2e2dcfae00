(** Affine integer expressions over named variables.

    An affine expression is [c0 + c1*v1 + ... + cn*vn] where the [vi] are
    loop induction variables or symbolic program parameters (problem sizes,
    procedure formals). They are the currency of subscript analysis: two
    references are {e uniformly generated} when their subscript expressions
    have identical variable terms and differ only in the constant. *)

type t

(** {1 Construction} *)

val const : int -> t
val zero : t
val one : t
val var : string -> t

(** [term c v] is [c * v]. *)
val term : int -> string -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

(** [scale k e] is [k * e]. *)
val scale : int -> t -> t

(** [of_terms c terms] builds [c + sum_i (coeff_i * var_i)]; repeated
    variables are summed. *)
val of_terms : int -> (string * int) list -> t

(** {1 Inspection} *)

(** Constant part. *)
val const_part : t -> int

(** Coefficient of a variable (0 when absent). *)
val coeff : t -> string -> int

(** Variables with non-zero coefficients, sorted. *)
val vars : t -> string list

(** Non-constant terms as [(var, coeff)] pairs, sorted by variable. *)
val terms : t -> (string * int) list

val is_const : t -> bool
val to_const_opt : t -> int option

(** {1 Transformation} *)

(** [subst e v by] replaces variable [v] with expression [by]. *)
val subst : t -> string -> t -> t

(** Substitute every variable bound in the environment. *)
val subst_env : t -> (string * t) list -> t

(** Evaluate under a full numeric environment.
    @raise Not_found if a variable is unbound. *)
val eval : t -> (string -> int) -> int

(** Evaluate when every variable is bound in the association list. *)
val eval_alist : t -> (string * int) list -> int option

(** {1 Comparison} *)

val equal : t -> t -> bool

(** [uniformly_generated a b] holds when [a] and [b] have identical variable
    terms (they may differ in the constant) — the precondition for
    group-spatial locality (paper Section 4.2). *)
val uniformly_generated : t -> t -> bool

(** [offset_between a b] is [Some (const_part b - const_part a)] when the two
    expressions are uniformly generated, [None] otherwise. *)
val offset_between : t -> t -> int option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
