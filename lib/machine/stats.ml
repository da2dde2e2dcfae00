type t = {
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable miss_local : int;
  mutable miss_remote : int;
  mutable uncached_local : int;
  mutable uncached_remote : int;
  mutable bypass_reads : int;
  mutable pf_issued : int;
  mutable pf_vector : int;
  mutable pf_vector_words : int;
  mutable pf_on_time : int;
  mutable pf_late : int;
  mutable pf_late_cycles : int;
  mutable pf_dropped : int;
  mutable pf_unused : int;
  mutable pf_evicted : int;
  mutable annex_hits : int;
  mutable annex_misses : int;
  mutable invalidations : int;
  mutable upgrades : int;
  mutable dir_msgs : int;
  mutable bus_conflicts : int;
  mutable cluster_hits : int;
  mutable cluster_inter : int;
  mutable barriers : int;
  mutable flop_cycles : int;
  mutable stall_cycles : int;
  mutable link_conflicts : int;
  mutable link_occ_max : int;
  mutable lock_acquires : int;
  mutable lock_stall_cycles : int;
}

let create () =
  {
    reads = 0;
    writes = 0;
    hits = 0;
    miss_local = 0;
    miss_remote = 0;
    uncached_local = 0;
    uncached_remote = 0;
    bypass_reads = 0;
    pf_issued = 0;
    pf_vector = 0;
    pf_vector_words = 0;
    pf_on_time = 0;
    pf_late = 0;
    pf_late_cycles = 0;
    pf_dropped = 0;
    pf_unused = 0;
    pf_evicted = 0;
    annex_hits = 0;
    annex_misses = 0;
    invalidations = 0;
    upgrades = 0;
    dir_msgs = 0;
    bus_conflicts = 0;
    cluster_hits = 0;
    cluster_inter = 0;
    barriers = 0;
    flop_cycles = 0;
    stall_cycles = 0;
    link_conflicts = 0;
    link_occ_max = 0;
    lock_acquires = 0;
    lock_stall_cycles = 0;
  }

let merge a b =
  {
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    hits = a.hits + b.hits;
    miss_local = a.miss_local + b.miss_local;
    miss_remote = a.miss_remote + b.miss_remote;
    uncached_local = a.uncached_local + b.uncached_local;
    uncached_remote = a.uncached_remote + b.uncached_remote;
    bypass_reads = a.bypass_reads + b.bypass_reads;
    pf_issued = a.pf_issued + b.pf_issued;
    pf_vector = a.pf_vector + b.pf_vector;
    pf_vector_words = a.pf_vector_words + b.pf_vector_words;
    pf_on_time = a.pf_on_time + b.pf_on_time;
    pf_late = a.pf_late + b.pf_late;
    pf_late_cycles = a.pf_late_cycles + b.pf_late_cycles;
    pf_dropped = a.pf_dropped + b.pf_dropped;
    pf_unused = a.pf_unused + b.pf_unused;
    pf_evicted = a.pf_evicted + b.pf_evicted;
    annex_hits = a.annex_hits + b.annex_hits;
    annex_misses = a.annex_misses + b.annex_misses;
    invalidations = a.invalidations + b.invalidations;
    upgrades = a.upgrades + b.upgrades;
    dir_msgs = a.dir_msgs + b.dir_msgs;
    bus_conflicts = a.bus_conflicts + b.bus_conflicts;
    cluster_hits = a.cluster_hits + b.cluster_hits;
    cluster_inter = a.cluster_inter + b.cluster_inter;
    barriers = max a.barriers b.barriers;
    flop_cycles = a.flop_cycles + b.flop_cycles;
    stall_cycles = a.stall_cycles + b.stall_cycles;
    link_conflicts = a.link_conflicts + b.link_conflicts;
    link_occ_max = max a.link_occ_max b.link_occ_max;
    lock_acquires = a.lock_acquires + b.lock_acquires;
    lock_stall_cycles = a.lock_stall_cycles + b.lock_stall_cycles;
  }

let total_misses t = t.miss_local + t.miss_remote
let total_prefetches t = t.pf_issued + t.pf_vector

let pp ppf t =
  Format.fprintf ppf
    "@[<v>reads=%d writes=%d hits=%d miss(l/r)=%d/%d uncached(l/r)=%d/%d bypass=%d@,\
     pf: issued=%d vector=%d (%d words) on-time=%d late=%d (+%d cyc) dropped=%d \
     unused=%d evicted=%d@,\
     annex hit/miss=%d/%d invalidations=%d barriers=%d flops=%d stall=%d@,\
     coherence: upgrades=%d dir-msgs=%d bus-conflicts=%d cluster(hit/inter)=%d/%d@,\
     link: conflicts=%d max-occ=%d locks: acquires=%d stall=%d@]"
    t.reads t.writes t.hits t.miss_local t.miss_remote t.uncached_local
    t.uncached_remote t.bypass_reads t.pf_issued t.pf_vector t.pf_vector_words
    t.pf_on_time t.pf_late t.pf_late_cycles t.pf_dropped t.pf_unused t.pf_evicted
    t.annex_hits
    t.annex_misses t.invalidations t.barriers t.flop_cycles t.stall_cycles
    t.upgrades t.dir_msgs t.bus_conflicts t.cluster_hits t.cluster_inter
    t.link_conflicts t.link_occ_max t.lock_acquires t.lock_stall_cycles
