(** Coherence verification by numeric comparison.

    The strongest correctness statement this reproduction makes: after a
    parallel run under any coherence scheme, every shared array must equal
    the sequential execution's result bit-for-bit (the kernels perform no
    cross-iteration reductions, so parallel evaluation order matches
    sequential order elementwise). A scheme that lets a PE read a stale
    cached copy produces different numbers and fails here — which is
    exactly what the [Incoherent] mode demonstrates. *)

type mismatch = {
  array_name : string;
  index : int array;
  expected : float;
  got : float;
}

type report = {
  ok : bool;
  checked : int;  (** elements compared *)
  mismatches : mismatch list;  (** the first five offenders *)
  max_abs_diff : float;  (** over the elements whose difference is a number *)
}

(** Compare every element of every shared array between two final states
    (each read at its canonical copy, as {!Memsys.get}), exactly. A NaN on
    exactly one side is a mismatch; NaN on both sides agrees. The walk
    allocates nothing per element. *)
val compare_states :
  expected:Memsys.t -> got:Memsys.t -> Ccdp_ir.Program.t -> report

(** Compare the given result against the program's sequential execution
    from the same [init]: the value-only {!Seq_oracle} on the result's
    machine configuration (one PE). *)
val against_sequential :
  Ccdp_ir.Program.t ->
  init:(Memsys.t -> unit) ->
  Interp.result ->
  report

val pp_report : Format.formatter -> report -> unit
