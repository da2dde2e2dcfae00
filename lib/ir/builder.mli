(** Ergonomic program construction.

    A builder hands out unique reference and loop ids and accumulates
    declarations; workload definitions (lib/workloads) and tests are written
    against this interface. Affine and float-expression operators live in
    {!A} and {!F} to be locally opened: [A.(v "i" +! c 1)],
    [F.(rd b "X" A.[ v "i" ] * const 2.0)]. *)

type t

val create : name:string -> unit -> t

(** Declare a numeric program parameter (problem size). *)
val param : t -> string -> int -> unit

(** Declare an array. Shared arrays default to replicated distribution;
    pass [~dist] for distributed ones. *)
val array_ :
  t -> ?dist:Dist.t -> ?shared:bool -> string -> int array -> unit

(** Declare a procedure (callable from main or other procedures). *)
val proc : t -> string -> formals:string list -> Stmt.t list -> unit

(** Fresh read/write reference ([?loc] defaults to synthetic). *)
val ref_ : t -> ?loc:Loc.t -> string -> Affine.t list -> Reference.t

(** Fresh read reference as an expression. *)
val rd : t -> ?loc:Loc.t -> string -> Affine.t list -> Fexpr.t

(** [assign b "A" subs e] is [A(subs) := e] with a fresh reference id. *)
val assign : t -> ?loc:Loc.t -> string -> Affine.t list -> Fexpr.t -> Stmt.t

(** Serial loop with unit step by default. *)
val for_ :
  t -> ?step:int -> ?kind:Stmt.loop_kind -> ?loc:Loc.t -> string -> Bound.t ->
  Bound.t -> Stmt.t list -> Stmt.t

(** DOALL loop (static block schedule by default). *)
val doall :
  t -> ?step:int -> ?sched:Stmt.sched -> ?loc:Loc.t -> string -> Bound.t ->
  Bound.t -> Stmt.t list -> Stmt.t

val call : string -> (string * Affine.t) list -> Stmt.t

(** [critical lk body] is a lock-protected section (mini-epoch). *)
val critical : ?loc:Loc.t -> string -> Stmt.t list -> Stmt.t

(** [reduce op s e] is a recognized reduction update [s = s op e]. *)
val reduce : ?loc:Loc.t -> Fexpr.binop -> string -> Fexpr.t -> Stmt.t

(** Finish: package main body into a validated program.
    @raise Invalid_argument when validation fails. *)
val finish : t -> Stmt.t list -> Program.t

(** Affine operators. *)
module A : sig
  val v : string -> Affine.t
  val c : int -> Affine.t
  val ( +! ) : Affine.t -> Affine.t -> Affine.t
  val ( -! ) : Affine.t -> Affine.t -> Affine.t
  val ( *! ) : int -> Affine.t -> Affine.t

  (** Known bound. *)
  val bk : Affine.t -> Bound.t

  val bc : int -> Bound.t
  val bv : string -> Bound.t
end

(** Float-expression operators. *)
module F : sig
  val const : float -> Fexpr.t
  val iv : string -> Fexpr.t
  val sv : string -> Fexpr.t
  val ( + ) : Fexpr.t -> Fexpr.t -> Fexpr.t
  val ( - ) : Fexpr.t -> Fexpr.t -> Fexpr.t
  val ( * ) : Fexpr.t -> Fexpr.t -> Fexpr.t
  val ( / ) : Fexpr.t -> Fexpr.t -> Fexpr.t
  val neg : Fexpr.t -> Fexpr.t
  val sqrt_ : Fexpr.t -> Fexpr.t
  val abs_ : Fexpr.t -> Fexpr.t
  val min_ : Fexpr.t -> Fexpr.t -> Fexpr.t
  val max_ : Fexpr.t -> Fexpr.t -> Fexpr.t
end
