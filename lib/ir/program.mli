(** Whole programs: array declarations, procedures, main body, parameters.

    Programs are built with {!Builder}, validated here, and [inline]d before
    analysis — the paper's interprocedural stale-reference analysis is
    realized by full context-sensitive inlining (procedures are
    non-recursive, as in the Fortran-77 kernels studied). *)

type proc = { pname : string; formals : string list; body : Stmt.t list }

type t = {
  name : string;
  arrays : Array_decl.t list;
  procs : proc list;
  main : Stmt.t list;
  params : (string * int) list;
      (** numeric values of symbolic parameters (problem sizes) *)
}

val find_array : t -> string -> Array_decl.t
val find_array_opt : t -> string -> Array_decl.t option
val param : t -> string -> int

(** Every reference in main (not descending into procedures). *)
val main_refs : t -> (bool * Reference.t) list

val max_ref_id : t -> int
val max_loop_id : t -> int

(** Structural well-formedness: referenced arrays are declared with matching
    rank, called procedures exist with fully-supplied formals, the call
    graph is acyclic, reference and loop ids are unique, DOALL loops are not
    nested inside other DOALL loops (the paper's epoch model runs one level
    of parallelism). Returns the list of problems, empty when valid. *)
val validate : t -> string list

(** Replace every [Call] by the callee body with actuals substituted.
    Cloned references and loops receive fresh ids, making the result
    context-sensitive: the same textual reference reached through two call
    sites can be classified differently.
    @raise Invalid_argument if validation fails. *)
val inline : t -> t

val pp : Format.formatter -> t -> unit
