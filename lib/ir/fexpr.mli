(** Floating-point expression language (right-hand sides).

    Kept deliberately small: enough to express the four SPEC kernels with
    real arithmetic, so that the simulator produces checkable numerics — a
    coherence violation shows up as a wrong answer, not just a statistic. *)

type unop = Neg | Sqrt | Abs
type binop = Add | Sub | Mul | Div | Min | Max

type t =
  | Const of float
  | Ref of Reference.t  (** read of an array element *)
  | Ivar of string  (** induction variable or integer parameter, as float *)
  | Svar of string  (** task-private scalar *)
  | Unop of unop * t
  | Binop of binop * t * t

(** All array reads, left-to-right (the runtime issues them in this order). *)
val reads : t -> Reference.t list

(** Fold over reads. *)
val fold_reads : ('a -> Reference.t -> 'a) -> 'a -> t -> 'a

(** Substitute affine arguments into every reference's subscripts
    (procedure inlining). *)
val subst_env : t -> (string * Affine.t) list -> t

(** Re-key every reference id via the supplied function. *)
val map_ref_ids : (int -> int) -> t -> t

(** Count of arithmetic operations (cost estimation input). *)
val flops : t -> int

val apply_unop : unop -> float -> float
val apply_binop : binop -> float -> float -> float
val string_of_binop : binop -> string
val pp : Format.formatter -> t -> unit

(** {1 Stack forms}

    The evaluators keep intermediate values on a float stack, because a
    float passed to or returned from a function call that is not inlined
    is boxed. [unop_at op stack d] replaces [stack.(d)] with
    [apply_unop op stack.(d)]; [binop_at op stack d] replaces it with
    [apply_binop op stack.(d) stack.(d + 1)]. Neither allocates. *)

val unop_at : unop -> float array -> int -> unit
val binop_at : binop -> float array -> int -> unit
