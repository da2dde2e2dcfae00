(** Fixed-size domain pool for embarrassingly parallel simulator runs.

    The experiment grid (workload x machine width x mode), the parameter
    sweeps and the fuzz campaigns are all lists of fully independent
    [Interp.run] invocations: the interpreter allocates every piece of
    mutable state per run, so runs can execute on any domain in any order.
    This module shards such a list across OCaml 5 domains while keeping
    the {e results} deterministic: output is collected by input index, so
    [map_runs] is observably [List.mapi] regardless of scheduling, core
    count or job override.

    Job count resolution (first match wins):
    + an explicit [~jobs] argument (a [-j] command-line flag);
    + the [CCDP_JOBS] environment variable;
    + [Domain.recommended_domain_count ()].

    With one job the pool spawns no domains at all — every task runs in
    the calling domain, which is both the fallback for constrained hosts
    and the reference order for determinism tests. *)

type t

(** Worker exception, re-raised in the caller with the run's identity.
    [index] is the 0-based position of the failing input; [label] is the
    caller-supplied run description (empty when none was given). *)
exception Run_failed of { index : int; label : string; exn : exn }

(** The most workers a pool can have: OCaml 5.1 runs at most 128
    domains at once, the calling domain included. *)
val max_jobs : int

(** Resolve a job count: [jobs] argument, else [CCDP_JOBS], else
    [Domain.recommended_domain_count ()]. Values below 1, a [CCDP_JOBS]
    above {!max_jobs}, or an unparseable [CCDP_JOBS], fall back to the
    next source. *)
val resolve_jobs : ?jobs:int -> unit -> int

(** [create ~jobs] spawns [jobs - 1] worker domains (the calling domain
    is the remaining worker). [jobs <= 1] spawns nothing. *)
val create : jobs:int -> t

val jobs : t -> int

(** Join the worker domains. Idempotent; the pool is unusable after. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] resolves the job count, runs [f] on a fresh pool
    and shuts it down (also on exception). *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a

(** [map_runs pool f xs] is [List.mapi f xs] computed on the pool's
    domains. Results are collected by input index, so the output is
    byte-identical to the sequential order for any job count. If any
    [f i x] raises, the lowest-index failure is re-raised in the caller
    as {!Run_failed} (after all workers have drained). [label i] names
    run [i] in that error. Not reentrant: [f] must not call back into
    the same pool. *)
val map_runs : ?label:(int -> string) -> t -> (int -> 'a -> 'b) -> 'a list -> 'b list

(** [map_shards pool ~shards f] is [Array.init shards f] computed on the
    pool's domains, collected by shard index. Unlike {!map_runs} it is
    safe to call from inside a task already running on [pool] (an
    [Interp.run] sharding its epochs from within a campaign batch):
    nested submission is detected per-domain and serialized inline on the
    calling domain instead of deadlocking on workers that are all busy
    with the outer batch. If any [f s] raises, the lowest-index failure
    is re-raised as {!Run_failed} after all shards settle. *)
val map_shards : t -> shards:int -> (int -> 'a) -> 'a array

(** One-shot convenience: [run ?jobs f xs] wraps [with_pool] around
    {!map_runs}. *)
val run : ?jobs:int -> ?label:(int -> string) -> (int -> 'a -> 'b) -> 'a list -> 'b list

(** Minor-heap words allocated so far by every domain. [Gc.minor_words]
    counts the calling domain only, so it misses what a pool's worker
    domains allocate; after the minor collection this forces,
    [Gc.quick_stat] holds the program-wide total. Call it outside a timed
    interval: the collection costs time. *)
val all_minor_words : unit -> float
