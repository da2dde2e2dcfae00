open Ccdp_ir
open Ccdp_machine

type mode =
  | Seq
  | Base
  | Ccdp
  | Invalidate
  | Incoherent
  | Hscd
  | Msi
  | Mesi
  | Directory
  | Clustered

let mode_name = function
  | Seq -> "SEQ"
  | Base -> "BASE"
  | Ccdp -> "CCDP"
  | Invalidate -> "INV"
  | Incoherent -> "INC"
  | Hscd -> "HSCD"
  | Msi -> "MSI"
  | Mesi -> "MESI"
  | Directory -> "DIR"
  | Clustered -> "CLU"

let all_modes =
  [ Seq; Base; Ccdp; Invalidate; Incoherent; Hscd; Msi; Mesi; Directory; Clustered ]

let mode_describe = function
  | Seq -> "sequential reference execution (1 PE)"
  | Base -> "parallel, shared data never cached"
  | Ccdp -> "compiler-directed coherence with data prefetching"
  | Incoherent -> "parallel, caches left incoherent (unsound; ground truth)"
  | Invalidate -> "parallel, full cache invalidation at every barrier"
  | Hscd -> "hardware-supported compiler-directed version checks"
  | Msi -> "MSI bus snooping"
  | Mesi -> "MESI bus snooping"
  | Directory -> "full-map directory protocol"
  | Clustered -> "hardware-coherent islands, CCDP discipline across clusters"

let mode_of_string s =
  let s = String.uppercase_ascii s in
  List.find_opt (fun m -> mode_name m = s) all_modes

(* Protocol fault injection for the differential campaign: each fault
   class breaks exactly the coherence action whose absence the staleness
   oracle must witness. The cost accounting is untouched — the sabotaged
   run looks identical on every counter, which is why value-blind testing
   cannot catch these. *)
type sabotage =
  | No_fault
  | Drop_invalidate
      (** snooping: the first remote copy a write transaction should
          invalidate is silently skipped *)
  | Corrupt_presence
      (** directory: the first sharer of a write's invalidation set is
          dropped from the presence bitset instead of invalidated *)
  | Drop_inter_cluster_invalidate
      (** clustered: the first copy a cross-cluster write's home-island
          back-invalidation should kill survives *)

(* HSCD write-version state of one array: [settled] is the last completed
   epoch tick that contained any write; [writers] is a bitmask of the PEs
   that have written during the current epoch (all-ones when a PE id
   exceeds the mask width). A reader whose own PE is the only current
   writer may trust same-epoch fills: nobody else changed memory. A record
   with [settled = -1; writers = 0] is indistinguishable from an absent
   one, which lets prepared accesses pin the record up front. *)
type version = { mutable settled : int; mutable writers : int }

(* Dynamic staleness oracle: memory carries a per-word version stamp
   (monotonic write counter) and the epoch in which the stamp was produced;
   cache lines capture the stamps of their words at fill/update time. A
   cache hit whose captured version predates a write completed before the
   current epoch has observed a stale copy — a concrete unsoundness witness
   for the stale-reference analysis, independent of whether the numeric
   value happens to coincide. *)
type violation = {
  v_ref : int;  (** offending reference id *)
  v_pe : int;
  v_array : string;
  v_index : int array;
  v_addr : int;
  v_cached_version : int;
  v_mem_version : int;
  v_write_epoch : int;  (** epoch that produced the missed write *)
  v_read_epoch : int;  (** epoch in which the stale hit happened *)
}

let max_kept_violations = 16

(* Oracle assertions and their witnesses, either settled or staged by one
   PE of a buffered mode until the barrier. *)
type ledger = {
  mutable checked : int;  (** assertions evaluated *)
  mutable n_stale : int;  (** stale hits, exact even when [witnesses] is full *)
  mutable witnesses : violation list;
      (** the first [max_kept_violations] stale hits, newest first *)
}

let ledger () = { checked = 0; n_stale = 0; witnesses = [] }

(* Append [src] to [dst]: the counts add up and [src]'s witnesses follow
   [dst]'s, oldest first, while the cap allows. *)
let merge dst src =
  dst.checked <- dst.checked + src.checked;
  dst.n_stale <- dst.n_stale + src.n_stale;
  List.iter
    (fun v ->
      if List.compare_length_with dst.witnesses max_kept_violations < 0 then
        dst.witnesses <- v :: dst.witnesses)
    (List.rev src.witnesses)

type oracle = {
  wver : int array;  (** per-word last-write version *)
  wepoch : int array;  (** epoch tick of the last write; -1 = init *)
  wpe : int array;
      (** PE that produced the last write; -1 = init. Consulted only by the
          clustered exemption rule (and only meaningful unbuffered, where
          versions settle at the write itself). *)
  mutable next_ver : int;
  settled : ledger;
}

(* A growable int buffer; it allocates only when it doubles. *)
type ivec = { mutable buf : int array; mutable len : int }

let ivec n = { buf = Array.make (max 1 n) 0; len = 0 }

let push v x =
  if v.len = Array.length v.buf then begin
    let nb = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 nb 0 v.len;
    v.buf <- nb
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

(* Per-PE state. Nothing on the per-access path allocates: values move
   through [reg], line sets are generation-stamped [Line_table]s cleared
   in O(1) at the barrier, and the vector-get staging order is an int
   ring.

   Vector-get staging: [vget] maps each staged line to its ready cycle
   and the generation of its staging. The consumption order (oldest
   staged line evicted first) is the ring of [(line, generation)] pairs
   with lazy deletion: consuming or evicting a line leaves its ring entry
   behind as a tombstone, detected later by a generation mismatch. Every
   operation is O(1) amortized. *)
type pe_ctx = {
  pe : Pe.t;
  reg : float array;
      (** the PE's one-word data register: a read delivers its value here,
          a write stores the value found here *)
  vget : Line_table.t;  (** staged line -> ready cycle, staging generation *)
  mutable vq : int array;
      (** staging-order ring of (line, generation) pairs, oldest first;
          has tombstones; power-of-two length *)
  mutable vq_head : int;  (** index of the oldest pair's line *)
  mutable vq_len : int;  (** pairs in the ring *)
  mutable vgen : int;
  mutable vget_words : int;
  vaddrs : ivec;  (** element addresses of the vector get being assembled *)
  vseen : Line_table.t;  (** lines already taken by the issuing vector get *)
  fresh : Line_table.t;  (** lines filled since the last barrier *)
  mutable epoch_start : int;
  (* Buffered-mode private ledgers, reduced in PE-major order at the epoch
     barrier so sharded execution reproduces the serial reduction exactly. *)
  wlog : ivec;  (** addresses written this epoch, program order *)
  staged : ledger;
  pobs : (int, unit) Hashtbl.t;  (** staged INCOHERENT observed-stale ids *)
  fbuf : float array;  (** scratch line for patched buffered fills *)
  vbuf : int array;  (** scratch version line for patched buffered fills *)
}

(* Which hardware-coherence machinery is armed. Snooping carries only its
   MESI flag; the directory carries its presence/owner table. Everything
   protocol-specific dispatches on this once-per-run value, so the
   established modes never touch the new state. *)
type hw =
  | Hw_none
  | Hw_snoop of bool  (** [true] = MESI *)
  | Hw_dir of Coherence.Dir.t
  | Hw_cluster
      (** hardware-coherent islands: MESI snooping scoped to the
          requester's cluster, CCDP stale discipline across clusters *)

(* A named intra-epoch lock. [free_at] is the cycle at which the last
   granted holder released it; grants are booked in the order PEs execute
   (PE-major under serial replay), which makes arbitration deterministic:
   a later-executed PE queues behind every earlier booking even when its
   simulated arrival cycle is smaller. *)
type lock_state = { mutable free_at : int }

type t = {
  cfg : Config.t;
  md : mode;
  hw : hw;
  sab : sabotage;
  mutable sab_fired : bool;
      (** set the first time the configured sabotage actually skipped an
          invalidation — distinguishes armed faults from fired ones *)
  amap : Addr_map.t;
  mem : float array;
  mach : Machine.t;
  ctxs : pe_ctx array;
  decls : (string, Array_decl.t) Hashtbl.t;
  handles : (string, Addr_map.handle) Hashtbl.t;
  pl : Ccdp_analysis.Annot.plan;
  net : Net.t;  (** interconnect: distances + link-occupancy bookings *)
  mutable epoch_tick : int;  (** epoch-execution counter (version clock) *)
  versions : (string, version) Hashtbl.t;
      (** HSCD: per-array write-version state *)
  observed_stale : (int, unit) Hashtbl.t;
      (** reference ids that returned a value differing from memory
          (photographed in INCOHERENT mode; ground truth for validating the
          stale-reference analysis) *)
  ora : oracle option;
  wv : int array;  (** the oracle's [wver], or [[||]] when the oracle is off *)
  buffered : bool;
      (** epoch-buffered cross-PE effects (Seq/Base/Ccdp/Invalidate/
          Incoherent): fills read the epoch-start [shadow] except for the
          filling PE's own writes, and oracle versions settle at the
          barrier — PEs of one epoch become order-independent *)
  shadow : float array;  (** memory as of the last barrier ([[||]] unbuffered) *)
  wstamp : int array;
      (** per-word [epoch * n_pes + pe] stamp of the current epoch's write,
          never reset (stale stamps cannot collide: the base grows
          monotonically); [[||]] when unbuffered *)
  locks : (string, lock_state) Hashtbl.t;
      (** named critical-section locks, created on first acquire and reset
          at every epoch boundary (the barrier subsumes any release) *)
  has_sync : bool;
      (** the program contains critical sections: locked bypass reads
          observe other PEs' current-epoch writes through [mem], so DOALL
          epochs must replay serially (see {!shardable}) *)
}

let make cfg ~oracle ~sabotage (p : Program.t) ~plan md ~buffered =
  let mach = Machine.create cfg in
  let amap =
    Addr_map.make p ~n_pes:cfg.Config.n_pes ~line_words:cfg.Config.line_words
      ~cache_lines:(Config.lines cfg)
      ()
  in
  let decls = Hashtbl.create 16 in
  List.iter (fun (a : Array_decl.t) -> Hashtbl.replace decls a.name a) p.Program.arrays;
  let ora =
    if oracle then
      let words = Addr_map.total_words amap in
      Some
        {
          wver = Array.make words 0;
          wepoch = Array.make words (-1);
          wpe = Array.make words (-1);
          next_ver = 0;
          settled = ledger ();
        }
    else None
  in
  let hw =
    match md with
    | Msi -> Hw_snoop false
    | Mesi -> Hw_snoop true
    | Directory ->
        let n_lines =
          (Addr_map.total_words amap + cfg.Config.line_words - 1)
          / cfg.Config.line_words
        in
        Hw_dir (Coherence.Dir.create ~n_pes:cfg.Config.n_pes ~n_lines)
    | Clustered -> Hw_cluster
    | Seq | Base | Ccdp | Invalidate | Incoherent | Hscd -> Hw_none
  in
  let words = Addr_map.total_words amap in
  let has_sync =
    let is_crit acc s =
      acc || match s with Stmt.Critical _ -> true | _ -> false
    in
    Stmt.fold is_crit false p.Program.main
    || List.exists
         (fun (pr : Program.proc) -> Stmt.fold is_crit false pr.Program.body)
         p.Program.procs
  in
  {
    cfg;
    md;
    hw;
    sab = sabotage;
    sab_fired = false;
    amap;
    mem = Array.make words 0.0;
    mach;
    ctxs =
      Array.init cfg.Config.n_pes (fun i ->
          {
            pe = Machine.pe mach i;
            reg = [| 0.0 |];
            vget = Line_table.create 16;
            vq = Array.make 32 0;
            vq_head = 0;
            vq_len = 0;
            vgen = 0;
            vget_words = 0;
            vaddrs = ivec 32;
            vseen = Line_table.create 16;
            fresh = Line_table.create 16;
            epoch_start = 0;
            wlog = ivec (if buffered then 64 else 0);
            staged = ledger ();
            pobs = Hashtbl.create 16;
            fbuf =
              (if buffered then Array.make cfg.Config.line_words 0.0 else [||]);
            vbuf =
              (if buffered && oracle then Array.make cfg.Config.line_words 0
               else [||]);
          });
    decls;
    handles = Hashtbl.create 16;
    pl = plan;
    net =
      (* a machine width the configured clustering cannot tile (the seq
         baseline's 1-PE rebuild of a clustered config, mainly) degrades
         to flat rather than failing: a machine of one PE has no islands *)
      (let cluster_pes =
         if cfg.Config.n_pes mod cfg.Config.cluster_pes = 0 then
           cfg.Config.cluster_pes
         else 1
       in
       Net.create ~hop:cfg.Config.hop ~cluster_pes cfg.Config.net
         ~n_pes:cfg.Config.n_pes);
    epoch_tick = 0;
    versions = Hashtbl.create 16;
    observed_stale = Hashtbl.create 16;
    ora;
    wv = (match ora with Some o -> o.wver | None -> [||]);
    buffered;
    shadow = (if buffered then Array.make words 0.0 else [||]);
    wstamp = (if buffered then Array.make words min_int else [||]);
    locks = Hashtbl.create 4;
    has_sync;
  }

let create cfg ?(oracle = false) ?(sabotage = No_fault) p ~plan md =
  let buffered =
    match md with
    | Seq | Base | Ccdp | Invalidate | Incoherent -> true
    | Hscd | Msi | Mesi | Directory | Clustered -> false
  in
  make cfg ~oracle ~sabotage p ~plan md ~buffered

(* Unbuffered: with one PE and nothing timed there is no epoch to buffer,
   so [set] and direct word writes are the whole memory model. *)
let image cfg p =
  let cfg = { cfg with Config.n_pes = 1; Config.cluster_pes = 1 } in
  make cfg ~oracle:false ~sabotage:No_fault p
    ~plan:(Ccdp_analysis.Annot.empty ()) Seq ~buffered:false

let words t = t.mem

let cfg t = t.cfg
let mode t = t.md
let map t = t.amap
let machine t = t.mach
let plan t = t.pl
let decl t name = Hashtbl.find t.decls name

let handle_of t name =
  match Hashtbl.find_opt t.handles name with
  | Some h -> h
  | None ->
      let h = Addr_map.handle t.amap name in
      Hashtbl.replace t.handles name h;
      h

let set t name idx v =
  List.iter
    (fun a ->
      t.mem.(a) <- v;
      if t.buffered then t.shadow.(a) <- v;
      match t.ora with
      | Some o ->
          (* untimed initialization: versioned, but settled before epoch 0 *)
          o.next_ver <- o.next_ver + 1;
          o.wver.(a) <- o.next_ver;
          o.wepoch.(a) <- -1;
          o.wpe.(a) <- -1
      | None -> ())
    (Addr_map.all_copies t.amap name idx)

let get t name idx = t.mem.(Addr_map.canonical t.amap name idx)
let reg t ~pe = t.ctxs.(pe).reg
let charge t ~pe c =
  let ctx = t.ctxs.(pe) in
  ctx.pe.Pe.stats.Stats.flop_cycles <- ctx.pe.Pe.stats.Stats.flop_cycles + c;
  Pe.advance ctx.pe c
let clock t ~pe = t.ctxs.(pe).pe.Pe.clock

(* ------------------------------------------------------------------ *)
(* Intra-epoch locks                                                   *)
(* ------------------------------------------------------------------ *)

(* Acquire: an uncontended acquire costs [lock_acquire] cycles (a remote
   atomic swap round trip); a contended one additionally stalls until the
   holder's release. Grants are booked in PE execution order — serial
   PE-major replay makes the arbitration deterministic. *)
let lock_acquire t ~pe name =
  let ctx = t.ctxs.(pe) in
  let st =
    match Hashtbl.find_opt t.locks name with
    | Some st -> st
    | None ->
        let st = { free_at = 0 } in
        Hashtbl.replace t.locks name st;
        st
  in
  let arrival = ctx.pe.Pe.clock in
  let grant = max (arrival + t.cfg.Config.lock_acquire) st.free_at in
  let stall = grant - arrival - t.cfg.Config.lock_acquire in
  let s = ctx.pe.Pe.stats in
  s.Stats.lock_acquires <- s.Stats.lock_acquires + 1;
  if stall > 0 then begin
    s.Stats.lock_stall_cycles <- s.Stats.lock_stall_cycles + stall;
    s.Stats.stall_cycles <- s.Stats.stall_cycles + stall
  end;
  Pe.advance ctx.pe (grant - arrival)

(* Release: the publication fence — [lock_release] cycles, after which the
   section's writes are visible to the next holder (locked readers bypass
   the cache, so memory itself is already current). *)
let lock_release t ~pe name =
  let ctx = t.ctxs.(pe) in
  Pe.advance ctx.pe t.cfg.Config.lock_release;
  match Hashtbl.find_opt t.locks name with
  | Some st -> if ctx.pe.Pe.clock > st.free_at then st.free_at <- ctx.pe.Pe.clock
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Internals                                                           *)
(* ------------------------------------------------------------------ *)

(* Targets are plain ints on the per-access path: [-1] is local, anything
   else the owning (remote) PE id — no variant boxing per access. *)

(* Per-access hop cost: [Net.cost] reads the all-pairs matrix folded once
   at [Net.create] time, so the prepared-access fast path stays a single
   array lookup — no dispatch, no allocation. *)
let net_dist t ~pe owner = Net.cost t.net ~src:pe ~dst:owner

(* Intra-cluster transfers ride the island's local fabric at the cheap
   local rate; only genuinely inter-cluster references pay the base remote
   latency plus per-hop distance. On a flat machine ([cluster_pes = 1]) a
   remote target is never same-cluster, so nothing changes. *)
let latency_of t ~pe tgt =
  if tgt < 0 || Net.same_cluster t.net pe tgt then t.cfg.Config.local
  else t.cfg.Config.remote + net_dist t ~pe tgt

(* Latency of a read that does not allocate in the cache: local reads
   stream through the T3D read-ahead buffer. *)
let uncached_latency_of t ~pe tgt =
  if tgt < 0 || Net.same_cluster t.net pe tgt then t.cfg.Config.uncached_local
  else t.cfg.Config.remote + net_dist t ~pe tgt

(* Link-occupancy accounting: a remote transfer of [lines] cache lines
   books its bottleneck link for [link_occ] cycles per line starting at
   [now]; the returned queueing delay is added to the transfer's latency.
   Free (and counter-silent) when the contention model is off or the
   access is local. *)
let contend t ctx tgt ~now ~lines =
  if
    t.cfg.Config.link_occ = 0 || tgt < 0
    || Net.same_cluster t.net ctx.pe.Pe.id tgt
  then 0
  else begin
    let delay =
      Net.acquire t.net ~dst:tgt ~now ~hold:(t.cfg.Config.link_occ * lines)
    in
    let s = ctx.pe.Pe.stats in
    if delay > 0 then
      s.Stats.link_conflicts <- s.Stats.link_conflicts + 1;
    let depth = Net.link_depth t.net ~dst:tgt in
    if depth > s.Stats.link_occ_max then s.Stats.link_occ_max <- depth;
    delay
  end

let store_cost t ~pe tgt =
  if tgt < 0 || Net.same_cluster t.net pe tgt then t.cfg.Config.store_local
  else t.cfg.Config.store_remote

(* Snoop-bus arbitration: every MSI/MESI coherence transaction (miss
   fetch, upgrade, write-allocate) serializes through one machine-wide
   bus, and every clustered island transaction through its island's
   local bus, so one island's storm never delays another's. Each bus is a
   throughput backlog against the epoch barrier (see Net.acquire_bus);
   the queueing delay is what stops snooping from scaling with PE
   count. *)
let bus_acquire t ctx ~bus ~lines =
  if t.cfg.Config.bus_occ = 0 then 0
  else begin
    let delay =
      Net.acquire_bus t.net ~bus ~now:ctx.pe.Pe.clock ~since:ctx.epoch_start
        ~hold:(t.cfg.Config.bus_occ * lines)
    in
    if delay > 0 then begin
      let s = ctx.pe.Pe.stats in
      s.Stats.bus_conflicts <- s.Stats.bus_conflicts + 1
    end;
    delay
  end

(* Annex set-up cost of addressing a target PE (free when resident). *)
let annex_cost t ctx tgt =
  if tgt < 0 then 0
  else if Dtb_annex.touch ctx.pe.Pe.annex tgt then begin
    ctx.pe.Pe.stats.Stats.annex_hits <- ctx.pe.Pe.stats.Stats.annex_hits + 1;
    0
  end
  else begin
    ctx.pe.Pe.stats.Stats.annex_misses <- ctx.pe.Pe.stats.Stats.annex_misses + 1;
    t.cfg.Config.annex_setup
  end

(* Directory bookkeeping of a displaced line: the home forgets this PE's
   copy (a replacement-hint message), and displacing the line one owns
   Modified additionally pays the write-back injection. *)
let dir_note_eviction t ctx d =
  let ev = Cache.last_evicted_line ctx.pe.Pe.cache in
  if ev >= 0 then begin
    let self = ctx.pe.Pe.id in
    Coherence.Dir.remove d ~line:ev ~pe:self;
    let s = ctx.pe.Pe.stats in
    s.Stats.dir_msgs <- s.Stats.dir_msgs + 1;
    if Coherence.Dir.owner d ~line:ev = self then begin
      Coherence.Dir.set_owner d ~line:ev (-1);
      Pe.advance ctx.pe t.cfg.Config.store_remote
    end
  end

(* Current-epoch write stamp of [pe]: unique per (epoch, PE), monotonic
   across epochs, so [wstamp] never needs clearing. *)
let stamp_of t pe = (t.epoch_tick * Array.length t.ctxs) + pe

(* Buffered fill: a line transfer observes memory as of the last barrier
   ([shadow]) except for words this PE itself wrote in the current epoch,
   which it reads back from [mem]. Foreign same-epoch writes land in a
   line only through false sharing (the epoch model is race-free at word
   granularity) and under serial PE-major replay their visibility would
   depend on PE order — shadow makes it epoch-deterministic, and it is
   the only value a concurrently executing shard may soundly read.
   Racing on a foreign [wstamp] word is benign: whatever value is
   observed, it is never this PE's own stamp. *)
let buffered_fill ~state t ctx line =
  let lw = t.cfg.Config.line_words in
  let pos = line * lw in
  let base = stamp_of t ctx.pe.Pe.id in
  let own = ref false in
  for k = pos to pos + lw - 1 do
    if t.wstamp.(k) = base then own := true
  done;
  if not !own then
    Cache.fill_from ctx.pe.Pe.cache ~tick:t.epoch_tick ~state ~vers:t.wv ~line
      ~src:t.shadow ~pos
  else begin
    (* patch the PE's own writes over the shadow in a scratch line; the
       captured versions come from the same position, so they are staged
       in a scratch too *)
    Array.blit t.shadow pos ctx.fbuf 0 lw;
    for k = 0 to lw - 1 do
      if t.wstamp.(pos + k) = base then ctx.fbuf.(k) <- t.mem.(pos + k)
    done;
    let vers =
      if Array.length t.wv = 0 then [||]
      else begin
        Array.blit t.wv pos ctx.vbuf 0 lw;
        ctx.vbuf
      end
    in
    Cache.fill_from ctx.pe.Pe.cache ~tick:t.epoch_tick ~state ~vers ~line
      ~src:ctx.fbuf ~pos:0
  end

(* Where an access observes [addr] right after its line filled: under
   buffering, memory for own same-epoch writes, else the shadow the fill
   actually delivered. The array, not the value, so no float is boxed. *)
let filled_src t ctx addr =
  if t.buffered && t.wstamp.(addr) <> stamp_of t ctx.pe.Pe.id then t.shadow
  else t.mem

let deliver_filled t ctx addr = ctx.reg.(0) <- (filled_src t ctx addr).(addr)

let fill ~state t ctx line =
  if t.buffered then buffered_fill ~state t ctx line
  else
    Cache.fill_from ctx.pe.Pe.cache ~tick:t.epoch_tick ~state ~vers:t.wv ~line
      ~src:t.mem
      ~pos:(line * t.cfg.Config.line_words);
  (match t.hw with
  | Hw_none -> ()
  | Hw_snoop _ | Hw_cluster ->
      (* displacing a Modified line pays the write-back injection (memory
         itself is already current — write-through keeps the functional
         state exact; this is the protocol's timing debt) *)
      if Cache.last_evicted_state ctx.pe.Pe.cache = Coherence.modified then
        Pe.advance ctx.pe t.cfg.Config.store_remote
  | Hw_dir d ->
      dir_note_eviction t ctx d;
      Coherence.Dir.add d ~line ~pe:ctx.pe.Pe.id);
  Line_table.replace ctx.fresh line ~v1:0 ~v2:0

let record_arrival ctx ~stall =
  let s = ctx.pe.Pe.stats in
  if stall > 0 then begin
    s.Stats.pf_late <- s.Stats.pf_late + 1;
    s.Stats.pf_late_cycles <- s.Stats.pf_late_cycles + stall;
    s.Stats.stall_cycles <- s.Stats.stall_cycles + stall
  end
  else s.Stats.pf_on_time <- s.Stats.pf_on_time + 1

(* Oracle assertion at a cache hit: the captured word version must be no
   older than the last write settled before the current epoch. Writes of
   the current epoch are exempt — under the epoch model's race-freedom a
   same-epoch writer of a read location can only be the reading PE itself,
   whose write-through patched the cached copy (and its version). Two
   refinements close the same-epoch blind spot for synchronized programs:
   under an eagerly-invalidating hardware protocol every hit must carry
   the globally latest version (the protocol invalidates on write, so
   same-epoch lock writes are not exempt), and under buffering a foreign
   current-epoch write stamp on a hit word is a certain miss of a
   published intra-epoch value (see [foreign_fresh] below). *)
let oracle_check t ctx (r : Reference.t) idx addr =
  match t.ora with
  | None -> ()
  | Some o ->
      (* resident: the oracle asserts at hits only *)
      let cv = Cache.word_version ctx.pe.Pe.cache ~addr in
      (* Mini-epoch refinement: under buffering a cached copy can never
         contain another PE's current-epoch write (fills observe the
         epoch-start shadow, write-through patches only the writer, and
         drains happen at the barrier). So a tracked cache hit on a word
         carrying a foreign current-epoch stamp has — with certainty —
         missed a write published inside this epoch: exactly the escape a
         misclassified (cached instead of bypassed) in-critical read
         produces. Race-free lock-free programs never trip this test: only
         the reading PE itself writes its read set within an epoch. *)
      let foreign_fresh =
        t.buffered
        &&
        let st = t.wstamp.(addr) in
        let base = t.epoch_tick * Array.length t.ctxs in
        st >= base && st <> base + ctx.pe.Pe.id
      in
      let stale =
        (o.wver.(addr) > cv
        &&
        match t.hw with
        | Hw_none -> o.wepoch.(addr) < t.epoch_tick
        | Hw_snoop _ | Hw_dir _ -> true
        | Hw_cluster ->
            (* clustered exemption: only a same-cluster write of the
               current epoch may be observed without a violation — the
               island's snoop keeps such copies coherent, while any
               cross-epoch or cross-cluster stale observation is exactly
               the escape the inter-cluster CCDP discipline must prevent *)
            not
              (o.wepoch.(addr) = t.epoch_tick
              && o.wpe.(addr) >= 0
              && Net.same_cluster t.net o.wpe.(addr) ctx.pe.Pe.id))
        || foreign_fresh
      in
      (* buffered modes stage in the PE's private ledger, merged PE-major
         at the barrier — serial replay executes PEs in exactly that
         order, so the merged log reproduces the serial one *)
      let l = if t.buffered then ctx.staged else o.settled in
      l.checked <- l.checked + 1;
      if stale then begin
        l.n_stale <- l.n_stale + 1;
        (* bounded witness list: prepend (newest first), reversed at
           report time — the n-th violation costs O(1), not O(kept) *)
        if l.n_stale <= max_kept_violations then
          l.witnesses <-
            {
              v_ref = r.Reference.id;
              v_pe = ctx.pe.Pe.id;
              v_array = r.Reference.array_name;
              v_index = Array.copy idx;
              v_addr = addr;
              v_cached_version = cv;
              v_mem_version = o.wver.(addr);
              v_write_epoch =
                (if foreign_fresh then t.epoch_tick else o.wepoch.(addr));
              v_read_epoch = t.epoch_tick;
            }
            :: l.witnesses
      end

(* Consume a staged vector-get line: drop its table entry; the ring entry
   stays behind as a tombstone (generation mismatch). *)
let vget_consume ctx line lw =
  Line_table.remove ctx.vget line;
  ctx.vget_words <- ctx.vget_words - lw

(* A read served by the cached line at offset [off]; the oracle asserts
   over tracked reads. *)
let hit ~track t ctx (r : Reference.t) idx addr off =
  if track then oracle_check t ctx r idx addr;
  ctx.pe.Pe.stats.Stats.hits <- ctx.pe.Pe.stats.Stats.hits + 1;
  Pe.advance ctx.pe t.cfg.Config.hit;
  Cache.data_at ctx.pe.Pe.cache off ctx.reg 0

let count_miss ctx tgt =
  let s = ctx.pe.Pe.stats in
  if tgt < 0 then s.Stats.miss_local <- s.Stats.miss_local + 1
  else s.Stats.miss_remote <- s.Stats.miss_remote + 1

(* A prefetched line arrives: the reader stalls for whatever latency is
   left at [ready], pays [extract] cycles to take the line, and fills. *)
let arrive t ctx ~ready ~extract line addr =
  let stall = max 0 (ready - ctx.pe.Pe.clock) in
  record_arrival ctx ~stall;
  Pe.advance ctx.pe (stall + extract);
  fill ~state:Coherence.shared t ctx line;
  deliver_filled t ctx addr

(* The ordinary cached-read protocol: consume a pending vector-get or queue
   entry if one exists, then the cache, then demand-fetch. [fresh_only]
   restricts cache hits to lines filled since the last barrier (used for
   leading references, whose cached copy is only trustworthy when this
   epoch's prefetch machinery put it there). [track] marks tracked shared
   reads, whose cache hits the oracle asserts over ([r], [idx] identify the
   dynamic reference in the report). *)
let cached_read ?(fresh_only = false) ?(track = false) t ctx (r : Reference.t)
    idx addr tgt =
  let lw = t.cfg.Config.line_words in
  let line = addr / lw in
  let staged = Line_table.find ctx.vget line in
  if staged >= 0 then begin
    let ready = Line_table.v1 ctx.vget staged in
    vget_consume ctx line lw;
    arrive t ctx ~ready ~extract:t.cfg.Config.hit line addr
  end
  else
    let ready = Prefetch_queue.find ctx.pe.Pe.queue ~line in
    if ready >= 0 then begin
      Prefetch_queue.remove ctx.pe.Pe.queue ~line;
      arrive t ctx ~ready ~extract:t.cfg.Config.pf_extract line addr
    end
    else
      let off =
        if fresh_only && not (Line_table.mem ctx.fresh line) then -1
        else Cache.locate ctx.pe.Pe.cache ~addr
      in
      if off >= 0 then hit ~track t ctx r idx addr off
      else begin
        count_miss ctx tgt;
        let ac = annex_cost t ctx tgt in
        let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
        Pe.advance ctx.pe (ac + latency_of t ~pe:ctx.pe.Pe.id tgt + delay);
        fill ~state:Coherence.shared t ctx line;
        deliver_filled t ctx addr
      end

(* A read around the cache, counted as a bypass or as BASE's uncached
   access. *)
let uncached_read ~bypass t ctx addr tgt =
  (let s = ctx.pe.Pe.stats in
   if bypass then s.Stats.bypass_reads <- s.Stats.bypass_reads + 1
   else if tgt < 0 then s.Stats.uncached_local <- s.Stats.uncached_local + 1
   else s.Stats.uncached_remote <- s.Stats.uncached_remote + 1);
  let ac = annex_cost t ctx tgt in
  let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
  Pe.advance ctx.pe (ac + uncached_latency_of t ~pe:ctx.pe.Pe.id tgt + delay);
  ctx.reg.(0) <- t.mem.(addr)

(* A moved-back prefetch: the issue happened [back] cycles ago (clamped to
   the epoch start), so the reader only stalls for the residual latency. *)
let moved_back_read t ctx addr tgt ~back =
  let s = ctx.pe.Pe.stats in
  s.Stats.pf_issued <- s.Stats.pf_issued + 1;
  let line = addr / t.cfg.Config.line_words in
  let issue_at = max ctx.epoch_start (ctx.pe.Pe.clock - back) in
  let delay = contend t ctx tgt ~now:issue_at ~lines:1 in
  let ready = issue_at + latency_of t ~pe:ctx.pe.Pe.id tgt + delay in
  Cache.invalidate_line ctx.pe.Pe.cache ~line;
  arrive t ctx ~ready
    ~extract:
      (annex_cost t ctx tgt + t.cfg.Config.pf_issue + t.cfg.Config.pf_extract)
    line addr

(* ------------------------------------------------------------------ *)
(* Public protocol                                                     *)
(* ------------------------------------------------------------------ *)

(* a Lead whose stale verdict is Clean is a pure latency-hiding prefetch
   (the paper's future-work extension): any cached copy of its data is
   valid, so staging may skip cached lines and reads may hit non-fresh
   lines *)
let clean_lead t id =
  Ccdp_analysis.Stale.verdict t.pl.Ccdp_analysis.Annot.stale id
  = Ccdp_analysis.Stale.Clean

let tracked_shared t name =
  let d = decl t name in
  d.Array_decl.shared && d.Array_decl.dist <> Dist.Replicated

let writer_bit pe = if pe < 62 then 1 lsl pe else -1

let version_record t name =
  match Hashtbl.find_opt t.versions name with
  | Some v -> v
  | None ->
      let v = { settled = -1; writers = 0 } in
      Hashtbl.replace t.versions name v;
      v

(* HSCD (hardware-supported compiler-directed, after Choi-Yew's version
   schemes): every cache line carries its fill version, every array a
   write-version register. A hit whose line does not post-date the last
   write by another PE self-invalidates and refetches — coherence in
   hardware checks, no prefetching, no whole-cache flushes. Strictness
   matters: a line filled in the same epoch as another PE's write to it may
   have captured pre-write words (false sharing at epoch granularity); own
   writes are exempt, since memory was not changed by anyone else. *)
let hscd_read ver t ctx (r : Reference.t) idx addr tgt =
  let lw = t.cfg.Config.line_words in
  let line = addr / lw in
  let effective =
    match ver with
    | None -> -1
    | Some v ->
        if v.writers = 0 || v.writers = writer_bit ctx.pe.Pe.id then v.settled
        else t.epoch_tick
  in
  let ft = Cache.fill_tick ctx.pe.Pe.cache ~line in
  if ft >= 0 && ft <= effective then begin
    Cache.invalidate_line ctx.pe.Pe.cache ~line;
    ctx.pe.Pe.stats.Stats.invalidations <-
      ctx.pe.Pe.stats.Stats.invalidations + 1
  end;
  cached_read ~track:true t ctx r idx addr tgt

(* ------------------------------------------------------------------ *)
(* Hardware-coherence rivals: MSI/MESI bus snooping and the full-map
   directory. Both keep the functional model write-through (memory is
   always current, so fills always deliver fresh words); the protocol
   state machines govern which copies stay readable and what every
   transition costs. Every remote-initiated action probes other PEs'
   caches without touching their LRU order, and all probe/invalidate
   loops run in ascending PE order — deterministic, so both engines
   replay identical sequences.                                         *)
(* ------------------------------------------------------------------ *)

(* Snoop phase of a bus transaction: probe every other cache of PEs
   [lo, hi) — the whole machine under MSI/MESI, one island under the
   clustered mode. A read transaction ([invalidate = false]) downgrades
   E/M holders to S — a Modified holder first flushes, and the requester
   pays that flush: the snoop advances the requester's clock by it, so a
   caller books every clock-timed resource (bus, link) before snooping.
   A write/upgrade transaction invalidates every copy it finds. Returns
   the copies found. [drop] (armed by sabotage) lets the first copy an
   invalidation should kill survive — with identical accounting, which is
   exactly why only the staleness oracle (or the numerics) can witness the
   fault. *)
let snoop t ctx ~lo ~hi ~line ~invalidate ~drop =
  let self = ctx.pe.Pe.id in
  let copies = ref 0 and flushed = ref false in
  let drop = ref drop in
  for p = lo to hi - 1 do
    if p <> self then begin
      let c = t.ctxs.(p).pe.Pe.cache in
      let st = Cache.line_state c ~line in
      if st <> Coherence.invalid then begin
        incr copies;
        if st = Coherence.modified then flushed := true;
        if invalidate then begin
          if !drop then begin
            drop := false;
            t.sab_fired <- true
          end
          else Cache.invalidate_line c ~line
        end
        else if st > Coherence.shared then
          Cache.set_line_state c ~line Coherence.shared
      end
    end
  done;
  if !flushed then Pe.advance ctx.pe t.cfg.Config.store_remote;
  !copies

(* A bus-snooped read of the PEs [lo, hi) on bus [bus]: any valid state
   (S/E/M) is read locally without a bus transaction; a miss arbitrates
   the bus and snoops. [exclusive] is MESI's one edge over MSI: a miss
   nobody else holds fills Exclusive, so the first write back to it
   upgrades silently. *)
let snoop_read ~exclusive ~lo ~hi ~bus t ctx (r : Reference.t) idx addr tgt =
  let off = Cache.locate ctx.pe.Pe.cache ~addr in
  if off >= 0 then hit ~track:true t ctx r idx addr off
  else begin
    let self = ctx.pe.Pe.id in
    let line = addr / t.cfg.Config.line_words in
    count_miss ctx tgt;
    let ac = annex_cost t ctx tgt in
    let bus = bus_acquire t ctx ~bus ~lines:1 in
    let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
    let copies = snoop t ctx ~lo ~hi ~line ~invalidate:false ~drop:false in
    Pe.advance ctx.pe (ac + bus + latency_of t ~pe:self tgt + delay);
    let state =
      if exclusive && copies = 0 then Coherence.exclusive else Coherence.shared
    in
    fill ~state t ctx line;
    ctx.reg.(0) <- t.mem.(addr)
  end

let snoop_write mesi t ctx wh ~addr =
  let line = addr / t.cfg.Config.line_words in
  let self = ctx.pe.Pe.id in
  let c = ctx.pe.Pe.cache in
  let st = Cache.line_state c ~line in
  if st = Coherence.modified then Pe.advance ctx.pe t.cfg.Config.store_local
  else if mesi && st = Coherence.exclusive then begin
    (* silent E -> M: exclusivity is already guaranteed, no bus traffic *)
    Cache.set_line_state c ~line Coherence.modified;
    Pe.advance ctx.pe t.cfg.Config.store_local
  end
  else begin
    let tgt = Addr_map.target_of wh ~pe:self ~addr in
    let s = ctx.pe.Pe.stats in
    let miss = st = Coherence.invalid in
    let bus = bus_acquire t ctx ~bus:(Net.machine_bus t.net) ~lines:1 in
    (* a miss books its link at the request cycle, before the snoop
       charges a flush *)
    let delay =
      if miss then contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 else 0
    in
    let others =
      snoop t ctx ~lo:0 ~hi:(Array.length t.ctxs) ~line ~invalidate:true
        ~drop:(t.sab = Drop_invalidate)
    in
    s.Stats.invalidations <- s.Stats.invalidations + others;
    if not miss then begin
      (* S -> M upgrade: an ownership broadcast, no data transfer *)
      s.Stats.upgrades <- s.Stats.upgrades + 1;
      Cache.set_line_state c ~line Coherence.modified;
      Pe.advance ctx.pe (store_cost t ~pe:self tgt + bus)
    end
    else begin
      (* write miss: bus read-exclusive — fetch, invalidate, allocate M *)
      let ac = annex_cost t ctx tgt in
      Pe.advance ctx.pe (ac + bus + latency_of t ~pe:self tgt + delay);
      fill ~state:Coherence.modified t ctx line
    end
  end

let dir_read d t ctx (r : Reference.t) idx addr tgt =
  let off = Cache.locate ctx.pe.Pe.cache ~addr in
  if off >= 0 then hit ~track:true t ctx r idx addr off
  else begin
    let self = ctx.pe.Pe.id in
    let line = addr / t.cfg.Config.line_words in
    let s = ctx.pe.Pe.stats in
    count_miss ctx tgt;
    let ac = annex_cost t ctx tgt in
    (* the line's directory home is co-located with its owner PE in the
       address map: [tgt < 0] means the reader itself is home *)
    let home = if tgt < 0 then self else tgt in
    let ow = Coherence.Dir.owner d ~line in
    let extra =
      if ow >= 0 && ow <> self then begin
        (* dirty remote copy: 3-hop forwarding — requester -> home (in the
           base latency), home -> owner, owner -> requester — plus the
           owner's flush; the owner downgrades M -> S and the line is
           clean again *)
        s.Stats.dir_msgs <- s.Stats.dir_msgs + 3;
        Cache.set_line_state t.ctxs.(ow).pe.Pe.cache ~line Coherence.shared;
        Coherence.Dir.set_owner d ~line (-1);
        Net.cost t.net ~src:home ~dst:ow
        + Net.cost t.net ~src:ow ~dst:self
        + t.cfg.Config.store_remote
      end
      else begin
        (* clean at home: request + data reply *)
        s.Stats.dir_msgs <- s.Stats.dir_msgs + 2;
        0
      end
    in
    let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
    Pe.advance ctx.pe (ac + latency_of t ~pe:self tgt + delay + extra);
    fill ~state:Coherence.shared t ctx line;
    ctx.reg.(0) <- t.mem.(addr)
  end

let dir_write d t ctx wh ~addr =
  let line = addr / t.cfg.Config.line_words in
  let self = ctx.pe.Pe.id in
  let c = ctx.pe.Pe.cache in
  let st = Cache.line_state c ~line in
  if st = Coherence.modified then
    (* write hit on the owned copy: the directory already records self *)
    Pe.advance ctx.pe t.cfg.Config.store_local
  else begin
    let tgt = Addr_map.target_of wh ~pe:self ~addr in
    let home = if tgt < 0 then self else tgt in
    let s = ctx.pe.Pe.stats in
    s.Stats.dir_msgs <- s.Stats.dir_msgs + 2 (* request + grant *);
    let wb =
      let ow = Coherence.Dir.owner d ~line in
      if ow >= 0 && ow <> self then t.cfg.Config.store_remote else 0
    in
    (* invalidate every other recorded copy; acks return in parallel, so
       the wait is the worst home -> sharer round trip. Under
       [Corrupt_presence] sabotage the first sharer is dropped from the
       bitset instead — its stale copy survives, unrecorded. *)
    let max_hop = ref 0 and invs = ref 0 in
    let skip = ref (t.sab = Corrupt_presence) in
    let p = ref (Coherence.Dir.next_sharer d ~line ~from:0) in
    while !p >= 0 do
      if !p <> self then begin
        Coherence.Dir.remove d ~line ~pe:!p;
        if !skip then begin
          skip := false;
          t.sab_fired <- true
        end
        else begin
          Cache.invalidate_line t.ctxs.(!p).pe.Pe.cache ~line;
          incr invs;
          s.Stats.dir_msgs <- s.Stats.dir_msgs + 1;
          let h = Net.cost t.net ~src:home ~dst:!p in
          if h > !max_hop then max_hop := h
        end
      end;
      p := Coherence.Dir.next_sharer d ~line ~from:(!p + 1)
    done;
    s.Stats.invalidations <- s.Stats.invalidations + !invs;
    if st = Coherence.shared then s.Stats.upgrades <- s.Stats.upgrades + 1;
    let ack = 2 * !max_hop in
    if st = Coherence.invalid then begin
      (* write-allocate: fetch the line with exclusivity *)
      let ac = annex_cost t ctx tgt in
      let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
      Pe.advance ctx.pe (ac + latency_of t ~pe:self tgt + delay + wb + ack);
      fill ~state:Coherence.modified t ctx line
    end
    else begin
      Cache.set_line_state c ~line Coherence.modified;
      Pe.advance ctx.pe (store_cost t ~pe:self tgt + wb + ack)
    end;
    Coherence.Dir.set_owner d ~line self
  end

(* ------------------------------------------------------------------ *)
(* Coherence clusters: MESI snooping scoped to hardware-coherent
   islands, with the CCDP stale discipline across islands. A cluster
   read serves only data homed inside the requester's island (the
   dispatch falls back to the compiled CCDP route otherwise), so the
   protocol must keep exactly the island's copies of island-homed data
   coherent: an island write snoops its own bus, and a write landing in
   another island's home memory back-invalidates that island's copies
   (the CXL back-invalidation channel). Copies in third islands are
   allowed to go stale — their readers cross a cluster boundary and
   carry CCDP prefetch/bypass obligations.                              *)
(* ------------------------------------------------------------------ *)

(* Intra-cluster read: MESI over the requester's island. Reaches only
   addresses homed in the requester's island (or locally), so the latency
   model charges the cheap local rate (and no link contention) and the
   transaction arbitrates the island's own bus. Every call is an access
   the flat machine would have sent across the interconnect under the
   stale discipline — counted as a cluster hit. *)
let cluster_read t ctx r idx addr tgt =
  let s = ctx.pe.Pe.stats in
  s.Stats.cluster_hits <- s.Stats.cluster_hits + 1;
  let c = Net.cluster_of t.net ctx.pe.Pe.id and cp = Net.cluster_pes t.net in
  snoop_read ~exclusive:true ~lo:(c * cp) ~hi:((c + 1) * cp) ~bus:c t ctx r
    idx addr tgt

(* Clustered write: snoop the writer's own island on every tracked write,
   plus the CXL-style back-invalidation — the write-through lands in the
   home memory, and when the home is another island that island's bus
   kills its local copies (which its own cluster reads would otherwise
   trust).

   No silent M/E write-hit shortcut, deliberately: unlike the flat MSI/
   MESI rivals (which run plan-free, so {e every} fill is a snooped bus
   transaction), the clustered machine keeps the CCDP plan alive for
   inter-island traffic, and the plan's prefetch/vector staging fills
   whole cache lines without touching any bus. A staged line can alias
   island-homed words, so "I hold M" never certifies "no sibling holds a
   copy" — skipping the snoop on a write hit would let a sibling's staged
   copy go silently stale right where its reads trust the island
   protocol. The write therefore always arbitrates the island bus and
   probes the siblings; states still track sharing for the read side
   (E/S fills, upgrade accounting). *)
let cluster_write t ctx wh ~addr =
  let line = addr / t.cfg.Config.line_words in
  let self = ctx.pe.Pe.id in
  let c = ctx.pe.Pe.cache in
  let s = ctx.pe.Pe.stats in
  let tgt = Addr_map.target_of wh ~pe:self ~addr in
  let home = if tgt < 0 then self else tgt in
  let cp = Net.cluster_pes t.net in
  let my_cluster = Net.cluster_of t.net self in
  let home_cluster = Net.cluster_of t.net home in
  let bus = bus_acquire t ctx ~bus:my_cluster ~lines:1 in
  let own =
    snoop t ctx ~lo:(my_cluster * cp)
      ~hi:((my_cluster + 1) * cp)
      ~line ~invalidate:true ~drop:false
  in
  let inter =
    if home_cluster = my_cluster then 0
    else
      snoop t ctx ~lo:(home_cluster * cp)
        ~hi:((home_cluster + 1) * cp)
        ~line ~invalidate:true
        ~drop:(t.sab = Drop_inter_cluster_invalidate)
  in
  s.Stats.invalidations <- s.Stats.invalidations + own + inter;
  (let st = Cache.line_state c ~line in
   if st = Coherence.shared || st = Coherence.exclusive then begin
     s.Stats.upgrades <- s.Stats.upgrades + 1;
     Cache.set_line_state c ~line Coherence.modified
   end);
  Pe.advance ctx.pe (store_cost t ~pe:self tgt + bus)

(* The read protocol a reference executes, decided once per static
   reference (mode + classification + scheduled op + stale verdict never
   change during a run). *)
type route =
  | RPrivate  (** private / replicated data: cached and local in every mode *)
  | RPlain  (** ordinary tracked cached read *)
  | RIncoherent  (** tracked read with ground-truth staleness photography *)
  | RHscd
  | RUncached  (** BASE: shared data is not cached *)
  | RCovered  (** fresh-only cached read (stale covered reference) *)
  | RBypass
  | RBack of int  (** moved-back prefetch, issued this many cycles early *)
  | RLeadStaged  (** stale lead with SP/vector staging: staged-or-bypass *)
  | RSnoop of bool  (** MSI/MESI bus-snooped read ([true] = MESI) *)
  | RDir of Coherence.Dir.t  (** directory-protocol read *)
  | RCluster of route
      (** clustered: island-homed accesses snoop MESI inside the island;
          everything else falls back to the carried CCDP route. The
          same-cluster test is a per-access integer compare — the route
          pair itself is resolved once at preparation time. *)

(* The compiler-directed route of a tracked shared read: the CCDP plan's
   classification, demoted to plain caching wherever the stale verdict is
   Clean (pure latency hiding). Shared between the flat Ccdp mode and the
   clustered mode's inter-cluster fallback. *)
let ccdp_route t (r : Reference.t) =
  let open Ccdp_analysis in
  match Annot.cls_of t.pl r.id with
  | Annot.Normal -> RPlain
  | Annot.Covered _ ->
      (* a stale covered read may only hit lines its leader staged
         this epoch: at loop boundaries the covered span can reach one
         element past the leader's clamped range, and when chunk and
         line sizes misalign that element lands in a line the leader
         never touched — a leftover stale copy. Fresh-only turns that
         corner into a demand miss of current memory. Clean covers
         (latency-hiding groups) may trust any copy. *)
      if clean_lead t r.id then RPlain else RCovered
  | Annot.Bypass -> RBypass
  | Annot.Lead -> (
      match Annot.op_of t.pl r.id with
      | Some (Annot.Back { cycles; _ }) ->
          if clean_lead t r.id then RPlain else RBack cycles
      | Some (Annot.Pipelined _) | Some (Annot.Vector _) ->
          if clean_lead t r.id then RPlain else RLeadStaged
      | None -> RBypass)

let route_of t (r : Reference.t) =
  if not (tracked_shared t r.array_name) then RPrivate
  else
    match t.hw with
    | Hw_snoop m -> RSnoop m
    | Hw_dir d -> RDir d
    | Hw_cluster -> RCluster (ccdp_route t r)
    | Hw_none -> (
        match t.md with
        | Incoherent -> RIncoherent
        | Hscd -> RHscd
        | Base -> RUncached
        | Ccdp -> ccdp_route t r
        | Seq | Invalidate | Msi | Mesi | Directory | Clustered -> RPlain)

let rec dispatch_read t ctx (r : Reference.t) ~idx ~addr ~tgt ~ver route =
  match route with
  | RPrivate -> cached_read t ctx r idx addr (-1)
  | RPlain -> cached_read ~track:true t ctx r idx addr tgt
  | RIncoherent ->
      (* ground-truth staleness detection: an incoherent read that returns a
         value other than the one settled for this epoch has observed an
         actually-stale copy. [filled_value] is memory itself when
         unbuffered; under buffering it is the epoch-deterministic settled
         value (own writes from memory, the rest from the barrier shadow),
         staged per-PE and merged at the barrier. *)
      cached_read ~track:true t ctx r idx addr tgt;
      if ctx.reg.(0) <> (filled_src t ctx addr).(addr) then
        if t.buffered then Hashtbl.replace ctx.pobs r.id ()
        else Hashtbl.replace t.observed_stale r.id ()
  | RHscd -> hscd_read ver t ctx r idx addr tgt
  | RSnoop mesi ->
      snoop_read ~exclusive:mesi ~lo:0 ~hi:(Array.length t.ctxs)
        ~bus:(Net.machine_bus t.net) t ctx r idx addr tgt
  | RDir d -> dir_read d t ctx r idx addr tgt
  | RUncached -> uncached_read ~bypass:false t ctx addr tgt
  | RCovered -> cached_read ~fresh_only:true ~track:true t ctx r idx addr tgt
  | RBypass -> uncached_read ~bypass:true t ctx addr tgt
  | RBack back -> moved_back_read t ctx addr tgt ~back
  | RLeadStaged ->
      (* the prefetch machinery must have staged the line: pending entries
         are consumed by the normal path; a fresh cached line is a earlier
         consume; anything else means the issue was dropped -> bypass fetch *)
      let line = addr / t.cfg.Config.line_words in
      if
        Line_table.mem ctx.vget line
        || Prefetch_queue.find ctx.pe.Pe.queue ~line >= 0
        || Line_table.mem ctx.fresh line
      then cached_read ~fresh_only:true ~track:true t ctx r idx addr tgt
      else uncached_read ~bypass:true t ctx addr tgt
  | RCluster inner ->
      (* resolved per access: island-homed data runs the island protocol,
         everything else falls through to the compiled CCDP route *)
      if tgt < 0 || Net.same_cluster t.net ctx.pe.Pe.id tgt then
        cluster_read t ctx r idx addr tgt
      else begin
        let s = ctx.pe.Pe.stats in
        s.Stats.cluster_inter <- s.Stats.cluster_inter + 1;
        dispatch_read t ctx r ~idx ~addr ~tgt ~ver inner
      end

(* ------------------------------------------------------------------ *)
(* Prepared accesses: the compiled-plan interpreter resolves the route,
   address handle and version record once per static reference, leaving
   pure arithmetic plus the protocol itself on the per-access path.        *)
(* ------------------------------------------------------------------ *)

type raccess = {
  ar : Reference.t;
  ah : Addr_map.handle;
  aroute : route;
  aver : version option;
}

let prepare_read t (r : Reference.t) =
  {
    ar = r;
    ah = handle_of t r.array_name;
    aroute = route_of t r;
    aver =
      (if t.md = Hscd && tracked_shared t r.array_name then
         Some (version_record t r.array_name)
       else None);
  }

let access_addr _t acc ~pe ~idx = Addr_map.resolve_h acc.ah ~pe idx

let read_c t ~pe acc ~idx ~addr =
  let ctx = t.ctxs.(pe) in
  ctx.pe.Pe.stats.Stats.reads <- ctx.pe.Pe.stats.Stats.reads + 1;
  dispatch_read t ctx acc.ar ~idx ~addr
    ~tgt:(Addr_map.target_of acc.ah ~pe ~addr)
    ~ver:acc.aver acc.aroute

let read t ~pe r ~idx =
  let acc = prepare_read t r in
  read_c t ~pe acc ~idx ~addr:(access_addr t acc ~pe ~idx);
  t.ctxs.(pe).reg.(0)

type waccess = {
  wh : Addr_map.handle;
  wtracked : bool;
  wcaches : bool;
  wver : version option;
  wproto : hw;
      (** the protocol a tracked store runs, resolved once per static
          reference like the read route: [Hw_none] is the established
          write-through costing; the hardware rivals additionally run
          their state machine *)
}

let prepare_write t (r : Reference.t) =
  let tracked = tracked_shared t r.array_name in
  {
    wh = handle_of t r.array_name;
    wtracked = tracked;
    wcaches = ((not tracked) || match t.md with Base -> false | _ -> true);
    wver =
      (if t.md = Hscd && tracked then Some (version_record t r.array_name)
       else None);
    wproto = (if tracked then t.hw else Hw_none);
  }

let write_addr _t wa ~pe ~idx = Addr_map.resolve_h wa.wh ~pe idx

let write_c t ~pe wa ~addr =
  let ctx = t.ctxs.(pe) in
  ctx.pe.Pe.stats.Stats.writes <- ctx.pe.Pe.stats.Stats.writes + 1;
  t.mem.(addr) <- ctx.reg.(0);
  (* the version the write-through stamps on the cached copy; -1 = none *)
  let ver =
    if t.buffered then begin
      (* stamp + log; oracle version assignment and the shadow update are
         deferred to the barrier drain (PE-major), so the version clock is
         independent of shard interleaving. The writer's cached copy gets
         its version patched at the drain, once the version exists. *)
      t.wstamp.(addr) <- stamp_of t pe;
      push ctx.wlog addr;
      -1
    end
    else
      match t.ora with
      | None -> -1
      | Some o ->
          o.next_ver <- o.next_ver + 1;
          o.wver.(addr) <- o.next_ver;
          o.wepoch.(addr) <- t.epoch_tick;
          o.wpe.(addr) <- pe;
          o.next_ver
  in
  (match wa.wver with
  | Some vr -> vr.writers <- vr.writers lor writer_bit pe
  | None -> ());
  if wa.wcaches then
    Cache.update_if_present ctx.pe.Pe.cache ~mem:t.mem ~addr ~ver;
  match wa.wproto with
  | Hw_none ->
      Pe.advance ctx.pe
        (if wa.wtracked then
           store_cost t ~pe (Addr_map.target_of wa.wh ~pe ~addr)
         else t.cfg.Config.store_local)
  | Hw_snoop mesi -> snoop_write mesi t ctx wa.wh ~addr
  | Hw_dir d -> dir_write d t ctx wa.wh ~addr
  | Hw_cluster -> cluster_write t ctx wa.wh ~addr

let write t ~pe (r : Reference.t) ~idx v =
  let wa = prepare_write t r in
  let addr = Addr_map.resolve_h wa.wh ~pe idx in
  t.ctxs.(pe).reg.(0) <- v;
  write_c t ~pe wa ~addr

(* ------------------------------------------------------------------ *)
(* Prefetch issue                                                      *)
(* ------------------------------------------------------------------ *)

(* Under the clustered protocol, island-homed addresses are served
   coherently by [cluster_read] — which never consumes staged lines, so
   staging them would be a wasted transfer (and a wasted invalidation of a
   possibly-valid copy). The prefetch instruction itself still executes
   (the compiled code is mode-agnostic); only the transfer is elided. *)
let island_coherent t ~pe ~tgt =
  match t.hw with
  | Hw_cluster -> tgt < 0 || Net.same_cluster t.net pe tgt
  | Hw_none | Hw_snoop _ | Hw_dir _ -> false

let issue_prefetch_at ~skip_cached t ctx ~addr ~tgt =
  let lw = t.cfg.Config.line_words in
  let line = addr / lw in
  let already =
    island_coherent t ~pe:ctx.pe.Pe.id ~tgt
    || Line_table.mem ctx.vget line
    || Prefetch_queue.find ctx.pe.Pe.queue ~line >= 0
    || ((skip_cached || Line_table.mem ctx.fresh line)
       && Cache.probe_line ctx.pe.Pe.cache ~line)
  in
  (* the prefetch instruction executes either way; the line transfer and
     queue slot are only committed when the line is not already staged *)
  Pe.advance ctx.pe t.cfg.Config.pf_issue;
  if not already then begin
    Pe.advance ctx.pe (annex_cost t ctx tgt);
    (* invalidate before issuing (paper Section 3): the stale copy must not
       be readable while the prefetch is in flight *)
    Cache.invalidate_line ctx.pe.Pe.cache ~line;
    Line_table.remove ctx.fresh line;
    let delay = contend t ctx tgt ~now:ctx.pe.Pe.clock ~lines:1 in
    let ready = ctx.pe.Pe.clock + latency_of t ~pe:ctx.pe.Pe.id tgt + delay in
    if Prefetch_queue.try_insert ctx.pe.Pe.queue ~line ~words:lw ~ready then
      ctx.pe.Pe.stats.Stats.pf_issued <- ctx.pe.Pe.stats.Stats.pf_issued + 1
    else ctx.pe.Pe.stats.Stats.pf_dropped <- ctx.pe.Pe.stats.Stats.pf_dropped + 1
  end

let issue_line_prefetch ?(skip_cached = false) t ~pe name ~idx =
  let h = handle_of t name in
  let addr = Addr_map.resolve_h h ~pe idx in
  issue_prefetch_at ~skip_cached t t.ctxs.(pe) ~addr
    ~tgt:(Addr_map.target_of h ~pe ~addr)

let pf_issue_c ~skip_cached t ~pe acc ~addr =
  issue_prefetch_at ~skip_cached t t.ctxs.(pe) ~addr
    ~tgt:(Addr_map.target_of acc.ah ~pe ~addr)

let line_of t ~pe name ~idx =
  let h = handle_of t name in
  Addr_map.resolve_h h ~pe idx / t.cfg.Config.line_words

(* Append a pair to the staging-order ring, unrolling it into one twice
   the size when it is full. *)
let vq_push ctx line gen =
  let cap = Array.length ctx.vq in
  if 2 * ctx.vq_len = cap then begin
    let nq = Array.make (2 * cap) 0 in
    let tail = cap - ctx.vq_head in
    Array.blit ctx.vq ctx.vq_head nq 0 tail;
    Array.blit ctx.vq 0 nq tail ctx.vq_head;
    ctx.vq <- nq;
    ctx.vq_head <- 0
  end;
  let p = (ctx.vq_head + (2 * ctx.vq_len)) land (Array.length ctx.vq - 1) in
  ctx.vq.(p) <- line;
  ctx.vq.(p + 1) <- gen;
  ctx.vq_len <- ctx.vq_len + 1

let vget_add t ~pe ~addr = push t.ctxs.(pe).vaddrs addr

let vget_issue_h ~skip_cached t ~pe h =
  let ctx = t.ctxs.(pe) in
  let lw = t.cfg.Config.line_words in
  let addrs = ctx.vaddrs in
  Line_table.clear ctx.vseen;
  let first_target = ref (-1) and n = ref 0 in
  (* the lines to stage, in order, overwrite the front of the address
     buffer: line [k] is written only after address [k] was read *)
  for i = 0 to addrs.len - 1 do
    let addr = addrs.buf.(i) in
    let tgt = Addr_map.target_of h ~pe ~addr in
    if !first_target < 0 && tgt >= 0 then first_target := tgt;
    let line = addr / lw in
    if not (Line_table.mem ctx.vseen line) then begin
      Line_table.replace ctx.vseen line ~v1:0 ~v2:0;
      (* skip lines this epoch's machinery already staged or fetched,
         and island-homed lines under the clustered protocol (served
         coherently; staging would only displace valid copies) *)
      if
        not
          (island_coherent t ~pe ~tgt
          || ((skip_cached || Line_table.mem ctx.fresh line)
             && Cache.probe_line ctx.pe.Pe.cache ~line)
          || Line_table.mem ctx.vget line)
      then begin
        addrs.buf.(!n) <- line;
        incr n
      end
    end
  done;
  let issued = addrs.len > 0 in
  addrs.len <- 0;
  let n = !n in
  if issued then begin
    (* the block-transfer call is issued whenever the operation executes —
       a redundant vector prefetch still pays its start-up and translation
       overhead, even if every line turns out to be staged already *)
    let s = ctx.pe.Pe.stats in
    s.Stats.pf_vector <- s.Stats.pf_vector + 1;
    s.Stats.pf_vector_words <- s.Stats.pf_vector_words + (n * lw);
    let ac = annex_cost t ctx !first_target in
    (* one link booking for the whole block: a vector get streams all its
       lines through the owner's port back-to-back *)
    let delay =
      if n = 0 then 0
      else contend t ctx !first_target ~now:ctx.pe.Pe.clock ~lines:n
    in
    Pe.advance ctx.pe (ac + t.cfg.Config.vget_startup);
    for k = 0 to n - 1 do
      let line = addrs.buf.(k) in
      Cache.invalidate_line ctx.pe.Pe.cache ~line;
      Line_table.remove ctx.fresh line;
      (* the staging buffer holds at most a cache's worth of in-flight
         vector data: staging beyond that displaces the oldest unconsumed
         lines — the eviction hazard that motivates the paper's one-level
         pulling restriction. Tombstoned ring entries (consumed or already
         displaced lines) are skipped without counting as evictions. *)
      while
        ctx.vget_words + lw > t.cfg.Config.cache_words
        && Line_table.length ctx.vget > 0
      do
        let oldest = ctx.vq.(ctx.vq_head) and gen = ctx.vq.(ctx.vq_head + 1) in
        ctx.vq_head <- (ctx.vq_head + 2) land (Array.length ctx.vq - 1);
        ctx.vq_len <- ctx.vq_len - 1;
        let live = Line_table.find ctx.vget oldest in
        if live >= 0 && Line_table.v2 ctx.vget live = gen then begin
          vget_consume ctx oldest lw;
          s.Stats.pf_evicted <- s.Stats.pf_evicted + 1
        end
      done;
      (* never staged already: the line was unstaged when collected,
         and the lines staged since are other lines *)
      let ready =
        ctx.pe.Pe.clock + delay + ((k + 1) * lw * t.cfg.Config.vget_per_word)
      in
      ctx.vgen <- ctx.vgen + 1;
      vq_push ctx line ctx.vgen;
      ctx.vget_words <- ctx.vget_words + lw;
      Line_table.replace ctx.vget line ~v1:ready ~v2:ctx.vgen
    done
  end

let vget_issue ?(skip_cached = false) t ~pe name idxs =
  let h = handle_of t name in
  List.iter
    (fun idx -> vget_add t ~pe ~addr:(Addr_map.resolve_h h ~pe idx))
    idxs;
  vget_issue_h ~skip_cached t ~pe h

let vget_issue_c ~skip_cached t ~pe acc = vget_issue_h ~skip_cached t ~pe acc.ah

(* Barrier drain of the buffered-mode private ledgers, in PE-major order —
   the same order serial replay executes PEs in, so the settled versions,
   the violation log and the observed-stale set are identical for every
   shard count. Runs before the tick advances: the settling writes belong
   to the epoch that just ended. *)
let drain_buffered t =
  Array.iter
    (fun ctx ->
      for i = 0 to ctx.wlog.len - 1 do
        let a = ctx.wlog.buf.(i) in
        (match t.ora with
        | Some o ->
            o.next_ver <- o.next_ver + 1;
            o.wver.(a) <- o.next_ver;
            o.wepoch.(a) <- t.epoch_tick;
            (* the write-through patched the writer's cached value; the
               version it carries settles here *)
            Cache.update_if_present ctx.pe.Pe.cache ~mem:t.mem ~addr:a
              ~ver:o.next_ver
        | None -> ());
        t.shadow.(a) <- t.mem.(a)
      done;
      ctx.wlog.len <- 0;
      (match t.ora with
      | Some o ->
          merge o.settled ctx.staged;
          ctx.staged.checked <- 0;
          ctx.staged.n_stale <- 0;
          ctx.staged.witnesses <- []
      | None -> ());
      if Hashtbl.length ctx.pobs > 0 then begin
        Hashtbl.iter (fun id () -> Hashtbl.replace t.observed_stale id ()) ctx.pobs;
        Hashtbl.reset ctx.pobs
      end)
    t.ctxs

(* Whether DOALL epochs may execute with PEs sharded across domains: the
   mode must buffer every cross-PE effect until the barrier, and the
   link-contention model must be off (Net.acquire serializes bookings
   through shared per-link state mid-epoch). *)
(* Critical sections additionally forbid sharding: locked (bypassed) reads
   observe other PEs' current-epoch writes through [mem], so concurrent
   shards would race on it. *)
let shardable t = t.buffered && t.cfg.Config.link_occ = 0 && not t.has_sync

let epoch_boundary t =
  if t.buffered then drain_buffered t;
  Array.iter
    (fun ctx ->
      let leftovers = Line_table.length ctx.vget in
      ctx.pe.Pe.stats.Stats.pf_unused <-
        ctx.pe.Pe.stats.Stats.pf_unused + leftovers;
      Line_table.clear ctx.vget;
      ctx.vq_head <- 0;
      ctx.vq_len <- 0;
      ctx.vget_words <- 0;
      Line_table.clear ctx.fresh)
    t.ctxs;
  Hashtbl.iter
    (fun _ v ->
      if v.writers <> 0 then begin
        v.settled <- t.epoch_tick;
        v.writers <- 0
      end)
    t.versions;
  t.epoch_tick <- t.epoch_tick + 1;
  (* the barrier drains the network: link bookings do not cross epochs *)
  Net.reset_links t.net;
  (* the barrier subsumes any lock release: lock state does not cross
     epochs either *)
  Hashtbl.reset t.locks;
  (match t.md with
  | Seq -> ()
  (* the hardware rivals keep cache and protocol state across epochs —
     coherence is maintained continuously, not at barriers *)
  | Base | Ccdp | Incoherent | Hscd | Msi | Mesi | Directory | Clustered ->
      Machine.barrier t.mach
  | Invalidate ->
      Machine.barrier t.mach;
      Array.iter
        (fun ctx ->
          Cache.invalidate_all ctx.pe.Pe.cache;
          ctx.pe.Pe.stats.Stats.invalidations <-
            ctx.pe.Pe.stats.Stats.invalidations + 1)
        t.ctxs);
  Array.iter (fun ctx -> ctx.epoch_start <- ctx.pe.Pe.clock) t.ctxs

let time t = Machine.time t.mach
let total_stats t = Machine.total_stats t.mach

(* The getters fold any not-yet-drained per-PE staging on top of the
   settled oracle state, so mid-epoch introspection (unit tests driving
   read/write without barriers) sees every assertion. *)
let oracle_ledger t =
  let l = ledger () in
  (match t.ora with
  | Some o ->
      merge l o.settled;
      Array.iter (fun ctx -> merge l ctx.staged) t.ctxs
  | None -> ());
  l

let oracle_checked t = (oracle_ledger t).checked
let oracle_violation_count t = (oracle_ledger t).n_stale
let oracle_violations t = List.rev (oracle_ledger t).witnesses

let pp_violation ppf v =
  Format.fprintf ppf
    "stale hit: ref %d on PE %d read %s(%s) [addr %d] in epoch %d; cached \
     version %d predates version %d written in epoch %d"
    v.v_ref v.v_pe v.v_array
    (String.concat "," (Array.to_list (Array.map string_of_int v.v_index)))
    v.v_addr v.v_read_epoch v.v_cached_version v.v_mem_version v.v_write_epoch

(* Protocol introspection (property tests): the per-PE line state and the
   directory's view of a line. *)
let line_state t ~pe ~line = Cache.line_state t.ctxs.(pe).pe.Pe.cache ~line

let dir_sharers t ~line =
  match t.hw with
  | Hw_dir d -> Coherence.Dir.sharers d ~line
  | Hw_none | Hw_snoop _ | Hw_cluster -> []

let dir_owner t ~line =
  match t.hw with
  | Hw_dir d -> Coherence.Dir.owner d ~line
  | Hw_none | Hw_snoop _ | Hw_cluster -> -1

let sabotage t = t.sab
let sabotage_fired t = t.sab_fired

let observed_stale_ids t =
  let tbl = Hashtbl.copy t.observed_stale in
  Array.iter
    (fun ctx -> Hashtbl.iter (fun id () -> Hashtbl.replace tbl id ()) ctx.pobs)
    t.ctxs;
  Hashtbl.fold (fun id () acc -> id :: acc) tbl [] |> List.sort compare

let stale_cached_words t =
  let count = ref 0 in
  Array.iter
    (fun ctx ->
      for addr = 0 to Array.length t.mem - 1 do
        match Cache.read ctx.pe.Pe.cache ~addr with
        | Some v when v <> t.mem.(addr) -> incr count
        | Some _ | None -> ()
      done)
    t.ctxs;
  !count
