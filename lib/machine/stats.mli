(** Per-PE event counters.

    Every memory-system event the runtime charges is also counted here; the
    experiment reports and many tests are assertions over these counters
    (e.g. "the BASE run performs zero cache fills", "every potentially-stale
    read in the CCDP run was prefetched, covered or bypassed"). *)

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable miss_local : int;  (** demand miss served from local memory *)
  mutable miss_remote : int;
  mutable uncached_local : int;  (** BASE-mode direct local access *)
  mutable uncached_remote : int;
  mutable bypass_reads : int;  (** stale reads served around the cache *)
  mutable pf_issued : int;  (** cache-line prefetches issued *)
  mutable pf_vector : int;  (** vector prefetch operations issued *)
  mutable pf_vector_words : int;
  mutable pf_on_time : int;
  mutable pf_late : int;
  mutable pf_late_cycles : int;
  mutable pf_dropped : int;  (** queue full: fell back to bypass fetch *)
  mutable pf_unused : int;  (** prefetched but never consumed in the epoch *)
  mutable pf_evicted : int;
      (** vector-staged lines displaced before consumption (section larger
          than the staging capacity — the hazard that makes multi-level
          vector-prefetch pulling dangerous, paper Section 4.3.2) *)
  mutable annex_hits : int;
  mutable annex_misses : int;
  mutable invalidations : int;
  mutable upgrades : int;
      (** snooping/directory write upgrades (S -> M ownership requests);
          structurally zero outside the hardware-coherence modes, but the
          key is always rendered so schemas stay uniform across modes *)
  mutable dir_msgs : int;
      (** directory-protocol control messages (requests, forwards,
          invalidations, replacement hints); zero outside [Directory] *)
  mutable bus_conflicts : int;
      (** snoop-bus transactions that queued behind a busy bus; zero
          outside [Msi]/[Mesi]/[Clustered] (or when [Config.bus_occ = 0]).
          [Clustered] charges its island-local buses here. *)
  mutable cluster_hits : int;
      (** reads resolved entirely inside the requester's coherence island
          (intra-cluster MESI snoop, hit or island fill); zero outside
          [Clustered] *)
  mutable cluster_inter : int;
      (** reads that crossed an island boundary and fell back to the CCDP
          stale discipline; zero outside [Clustered] *)
  mutable barriers : int;
  mutable flop_cycles : int;
  mutable stall_cycles : int;
  mutable link_conflicts : int;
      (** remote transfers that queued behind a busy bottleneck link
          (only charged when [Config.link_occ > 0]) *)
  mutable link_occ_max : int;
      (** peak transfers sharing one link's busy burst *)
  mutable lock_acquires : int;  (** critical-section entries *)
  mutable lock_stall_cycles : int;
      (** cycles spent waiting for a held lock (beyond the uncontended
          acquire latency) *)
}

val create : unit -> t

(** Elementwise sum (machine-wide totals); [barriers] and [link_occ_max]
    merge with [max]. *)
val merge : t -> t -> t

val total_misses : t -> int
val total_prefetches : t -> int
val pp : Format.formatter -> t -> unit
