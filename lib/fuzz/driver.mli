(** The differential soundness campaign.

    Every generated program is executed under the nine {!variant_names}
    (BASE, the four CCDP scheduling variants, the three hardware rivals and
    the clustered islands mode), each with the dynamic staleness oracle
    armed, and checked three ways:

    - {b numerics}: final shared-array contents must equal the sequential
      execution bit-for-bit ({!Ccdp_runtime.Verify.compare_states});
    - {b oracle}: zero staleness-oracle violations — no cache hit may
      return a word older than the last pre-epoch write, even when the
      stale value numerically coincides with the fresh one;
    - {b static}: the coherence certifier ({!Ccdp_check.Check.certify})
      over the CCDP/all compile the runs used must agree with the other
      two legs —
      clean programs certify clean, and an injected stale-analysis fault
      that actually changes the stale set must raise an error-severity
      diagnostic {e without executing anything}.

    Each program is set up once per distinct compile: one front end
    (stale and target analysis) that the VPG-, SP- and MBP-only tunings
    reschedule ({!Ccdp_core.Pipeline.reschedule}), a second, clustered,
    front end only when the re-islanded machine's islands are wider than
    one PE, and one plan-free set-up for BASE and the hardware rivals.

    A failure is shrunk to a one-step-minimal description
    ({!Shrink.minimize}, candidates re-validated) and optionally dumped as
    a [.craft] reproducer. *)

type failure_kind =
  | Mismatch  (** numeric divergence from sequential execution *)
  | Oracle  (** staleness-oracle violation *)
  | Static_escape
      (** an injected analysis fault left a read's coherence obligation
          undischarged by the plan, but the static certifier raised no
          diagnostic *)
  | Static_spurious
      (** the static certifier raised error diagnostics on a program whose
          compile was not fault-injected *)

type failure = {
  f_index : int;  (** 0-based index of the program in the campaign *)
  f_variant : string;
  f_kind : failure_kind;
  f_detail : string;  (** rendered verify report / first oracle witnesses *)
  f_original : Gen.desc;
  f_shrunk : Gen.desc;
  f_reproducer : string option;  (** path of the dumped [.craft] file *)
}

type summary = {
  s_programs : int;
  s_runs : int;  (** variant executions (sequential baselines excluded) *)
  s_oracle_checks : int;  (** oracle assertions evaluated across all runs *)
  s_static_checks : int;  (** programs certified statically (= programs) *)
  s_static_caught : int;
      (** injected faults flagged by the certifier (fault-injected compiles
          that raised error diagnostics) *)
  s_static_escapes : int;
      (** dangerous injected faults — a victim read left undischarged by
          the mutated plan — the certifier missed; counted even when the
          dynamic legs reported the failure first *)
  s_failures : failure list;
}

(** Names of the execution variants, in run order:
    ["BASE"; "CCDP/all"; "CCDP/vpg"; "CCDP/sp"; "CCDP/mbp"; "MSI"; "MESI";
    "DIR"; "CLU"]. MSI, MESI and DIR are the hardware-coherence rivals,
    run plan-free with the protocol carrying the whole coherence
    obligation; CLU runs hardware-coherent islands under a cluster-aware
    CCDP plan on the generated machine re-islanded into two islands of
    [n_pes / 2] PEs (one-PE islands when [n_pes] is odd). *)
val variant_names : string list

(** Fault injection for self-tests: return a copy of the stale-analysis
    result with the [k]-th (mod count, sorted by id) stale mark dropped to
    Clean — the compiler bug the oracle exists to catch. Identity when the
    analysis marked nothing. Pass as [mutate_stale]. *)
val drop_stale_mark :
  int -> Ccdp_analysis.Stale.result -> Ccdp_analysis.Stale.result

(** Check one description across every variant; [Some (variant, kind,
    detail)] on the first failure. *)
val check_desc :
  ?mutate_stale:(Ccdp_analysis.Stale.result -> Ccdp_analysis.Stale.result) ->
  Gen.desc ->
  (string * failure_kind * string) option

(** CRAFT-dialect source of a description (compiled with its own config),
    suitable for [ccdp run] and regression suites. *)
val reproducer_text : Gen.desc -> string

(** Run a campaign of [count] programs drawn from [seed]. Failures are
    shrunk; with [dump_dir] each shrunk reproducer is written there as
    [fuzz_<seed>_<index>.craft]. [progress] is called after each program
    with the number checked so far.

    Program checks are sharded over [jobs] domains
    ({!Ccdp_exec.Pool.resolve_jobs} resolves the default); generation,
    shrinking and the summary fold stay on the calling domain, so for a
    given seed the summary is identical for every job count.

    [shards > 1] moves the parallelism {e inside} each simulated run
    instead: every variant executes with intra-run epoch sharding over
    that many domains ({!Ccdp_runtime.Interp.run}'s [?pool]), and
    program-level checking goes serial ([jobs] is ignored). The summary
    is identical to the unsharded campaign — this is how the fuzz corpus
    exercises the parallel simulation path. *)
val campaign :
  ?jobs:int ->
  ?shards:int ->
  ?mutate_stale:(Ccdp_analysis.Stale.result -> Ccdp_analysis.Stale.result) ->
  ?dump_dir:string ->
  ?progress:(int -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  summary

val pp_summary : Format.formatter -> summary -> unit

(** {2 Protocol sabotage}

    The hardware-protocol analogue of [mutate_stale]: instead of breaking
    the compiler's stale analysis, break the protocol's own coherence
    action ({!Ccdp_runtime.Memsys.sabotage}) and demand the dynamic
    staleness oracle witness the resulting stale copy. Cost accounting is
    untouched by the fault, so only the oracle (or a numeric divergence)
    can tell a sabotaged run from a healthy one. *)

type sabotage_case = {
  sb_name : string;
  sb_mode : Ccdp_runtime.Memsys.mode;
  sb_fault : Ccdp_runtime.Memsys.sabotage;
}

(** One case per protocol fault class, in run order: MSI and MESI under
    [Drop_invalidate], the directory under [Corrupt_presence]. *)
val sabotage_cases : sabotage_case list

type sabotage_summary = {
  sb_case : sabotage_case;
  sb_programs : int;
  sb_fired : int;
      (** runs in which the fault actually fired (the protocol reached the
          suppressed action, leaving a stale copy behind) *)
  sb_caught : int;  (** runs the oracle witnessed (>= 1 stale hit) *)
  sb_escapes : int;
      (** runs whose numerics diverged from sequential while the oracle
          stayed silent — must be zero for the oracle to be trusted *)
}

(** Run every {!sabotage_cases} entry over [count] programs drawn from
    [seed] (same sharding and determinism guarantees as {!campaign}).
    Each program is built once and runs one sequential baseline; the
    cases take their set-ups from the ones {!check_desc} shares.
    The soundness claim the tests pin: [sb_caught > 0] (each fault class
    is catchable) and [sb_escapes = 0] (nothing corrupts numerics behind
    the oracle's back). *)
val sabotage_campaign :
  ?jobs:int -> seed:int -> count:int -> unit -> sabotage_summary list

val pp_sabotage_summary : Format.formatter -> sabotage_summary -> unit
