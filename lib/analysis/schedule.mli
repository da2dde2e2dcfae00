(** Prefetch scheduling — the paper's Figure 2.

    For each inner loop or serial code segment holding prefetch targets,
    pick a scheduling technique in the paper's order of preference:

    - serial loop, known bounds: VPG, then SP, then MBP;
    - serial loop, unknown bounds: SP, then MBP;
    - DOALL with static scheduling, known bounds: VPG, then MBP;
    - DOALL with static scheduling, unknown bounds: MBP;
    - DOALL with dynamic scheduling: MBP;
    - serial code section: MBP;
    - loop containing if-statements (case 5): MBP only, and the moved-back
      prefetch must not cross the branch boundary (the moving window is the
      reference's own basic block);
    - a loop inside an if-body (case 6) uses the normal techniques — the
      prefetch placement point (just before the loop) stays inside the
      branch.

    VPG honours the hardware constraints of Section 4.3.1: the pulled
    section must fit the configured fraction of the cache; a write to the
    same array inside the loop forbids pulling (the block would be fetched
    before the loop's own updates). SP uses Mowry's distance (the machine's
    remote latency over estimated iteration time) clamped to the tuning range, widened to cover
    the group span, and bounded by prefetch-queue occupancy. MBP distances
    below the tuning minimum demote the target to a bypass read.

    Correctness deviation (documented in DESIGN.md): in an MBP-scheduled
    {e loop}, covered group members are promoted to their own moved-back
    prefetches — the leader's per-iteration prefetch cannot be proven to
    arrive before a covered member crosses a line boundary. In straight-line
    code the leader executes first, so covers remain sound. *)

type technique = Vpg | Sp | Mbp | Demoted  (** Demoted: became a bypass read *)

type tuning = {
  sp_min : int;  (** minimum acceptable prefetch-ahead distance *)
  sp_max : int;  (** maximum acceptable prefetch-ahead distance *)
  mbp_min_cycles : int;  (** below this, moving back is pointless: demote *)
  mbp_max_cycles : int;  (** data would be evicted again: clamp *)
  vpg_max_words : int option;  (** default: half the cache *)
  vpg_levels : int;
      (** loop levels a vector prefetch may be pulled out of. The paper
          fixes this to 1 — its stated modification of Gornish's algorithm
          (Section 4.3.2): pulling further risks the prefetched block being
          displaced before use. 2 enables the multi-level pull for the
          ablation study (the runtime models the displacement hazard with a
          bounded staging buffer). *)
  allow_vpg : bool;  (** ablation switches *)
  allow_sp : bool;
  allow_mbp : bool;
}

val default_tuning : tuning

(** Per-group decisions, for reports and tests. *)
type decision = {
  lead_id : int;
  epoch : int;
  loop_id : int option;
  technique : technique;
}

val analyze :
  Region.t ->
  Ccdp_machine.Config.t ->
  ?tuning:tuning ->
  Ref_info.t list ->
  Stale.result ->
  Target.t ->
  Annot.plan * decision list

val pp_decisions : Format.formatter -> decision list -> unit
