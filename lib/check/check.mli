(** Static coherence certifier (top level).

    Runs the three certification passes over a compiled pipeline — without
    executing the program — and returns their findings as structured
    diagnostics:

    + {!Coverage}: every potentially-stale read (per the {!Maystale}
      re-derivation) is prefetched, covered, or bypassed;
    + {!Race}: every DOALL passes the cross-iteration dependence test;
    + {!Lint}: every prefetch operation is sized within the machine's
      budgets.

    Error-severity findings mean the compiled plan's coherence argument
    does not hold; warnings are performance hazards. *)

val maystale : Ccdp_core.Pipeline.t -> Maystale.t

(** The race pass alone (for targeted tests and differentials). *)
val races : Ccdp_core.Pipeline.t -> Diag.t list

(** All passes, sorted in report order. *)
val certify : Ccdp_core.Pipeline.t -> Diag.t list

(** The error-severity findings. *)
val errors : Diag.t list -> Diag.t list

type report = { name : string; diags : Diag.t list }

val pp_report : Format.formatter -> report -> unit

(** Machine-readable report over several targets:
    [{"version":1,"targets":[{"name",...,"diagnostics":[...]}],
    "summary":{"errors":n,"warnings":n}}]. *)
val json : report list -> string
