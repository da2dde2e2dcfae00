(** Machine model parameters.

    All costs are in processor clock cycles. The [t3d] preset follows the
    published characterization of the Cray T3D (Arpaci et al., ISCA'95;
    Numrich's address-space report; paper Section 5.1): 8 KB direct-mapped
    data cache with 32-byte lines, a 16-word prefetch queue, a DTB Annex
    whose set-up overhead is significant, ~20-cycle local memory reads and
    remote reads worth hundreds of cycles.

    The interconnect is a first-class description ([net] + [hop] +
    [link_occ], realized by {!Net}): remote costs add [hop] cycles per
    network hop between the accessing PE and the owner, and an optional
    link-occupancy model charges queueing delay at contended links.

    The prefetch scheduling algorithm consumes [cache_words],
    [prefetch_queue_words] and [remote] as the average prefetch latency
    (paper Section 4.3.1's "important hardware constraints"); the runtime
    charges the per-operation costs. *)

type t = {
  n_pes : int;
  cluster_pes : int;
      (** PEs per coherence cluster (must divide [n_pes]; 1 = flat
          machine). Clusters are hardware-coherent islands: the [Clustered]
          runtime mode snoops MESI-style inside an island and falls back to
          the CCDP stale discipline across islands, and {!Net} charges
          intra-cluster transfers at the cheap local rate. *)
  (* cache *)
  cache_words : int;  (** data cache capacity, 64-bit words *)
  line_words : int;  (** cache line size, 64-bit words *)
  (* prefetch engine *)
  prefetch_queue_words : int;  (** prefetch queue capacity, words *)
  annex_entries : int;  (** DTB Annex translation slots *)
  (* latencies *)
  hit : int;  (** cache hit *)
  local : int;  (** local-memory cache-line fill *)
  uncached_local : int;
      (** uncached local read: the T3D's read-ahead buffer streams local
          DRAM well below the full fill latency, which is why the BASE
          codes tolerate uncached local data (paper Section 5.4: VPENTA and
          SWIM BASE "perform quite well") *)
  remote : int;  (** base remote-memory read (plus [hop] per network hop) *)
  net : Net.kind;
      (** interconnect topology: remote costs add [hop] cycles per network
          hop between the accessing PE and the owner ({!Net.hops};
          dimension-ordered minimal routing) *)
  hop : int;  (** per-hop network latency *)
  link_occ : int;
      (** link-occupancy model: cycles a remote transfer holds its
          bottleneck link per cache line moved; concurrent transfers
          sharing the link queue behind each other ([0] = contention
          modelling off) *)
  bus_occ : int;
      (** snoop-bus occupancy: cycles one bus transaction (miss fetch,
          upgrade, write-allocate) holds the machine-wide serialized snoop
          bus in the [Msi]/[Mesi] modes; every PE's transactions queue
          behind each other, which is what stops snooping from scaling
          ([0] = bus arbitration modelling off). Ignored by every other
          mode. *)
  store_local : int;  (** local write (write-through, buffered) *)
  store_remote : int;  (** remote write (buffered, network injection cost) *)
  pf_issue : int;  (** issuing one prefetch instruction *)
  pf_extract : int;  (** extracting a prefetched word from the queue *)
  annex_setup : int;  (** writing a DTB Annex entry (remote targets) *)
  vget_startup : int;  (** SHMEM-style block-transfer start-up *)
  vget_per_word : int;  (** per-word pipelined transfer cost *)
  barrier_base : int;
  barrier_per_level : int;  (** per log2(PE) tree level *)
  flop : int;  (** cost of one floating-point operation *)
  loop_overhead : int;  (** per-iteration control overhead *)
  lock_acquire : int;
      (** acquiring an uncontended lock (remote atomic read-modify-write);
          contention adds queueing delay on top ({!Memsys} arbitration) *)
  lock_release : int;  (** releasing a lock (store + publication fence) *)
}

(** Cray T3D preset at the given machine width (uniform remote latency). *)
val t3d : n_pes:int -> t

(** T3D preset with the 3-D torus distance model: [remote] becomes the
    zero-distance base and each hop adds [hop] cycles, calibrated so the
    machine-average remote cost stays near the uniform preset's. *)
val t3d_torus : n_pes:int -> t

(** T3D preset over a 2-D mesh (no wraparound), same calibration rule. *)
val t3d_mesh : n_pes:int -> t

(** T3D preset over a crossbar: constant one-hop distance, shared-port
    link contention on by default ([link_occ > 0]). *)
val t3d_xbar : n_pes:int -> t

(** CXL-style partially-coherent presets over the crossbar: PEs grouped
    into hardware-coherent islands ([cluster_pes > 1]) with inter-island
    transfers keeping the full hop/link-occupancy costs. The name records
    the island shape at the nominal 64-PE width (2x32 = 2 islands of 32
    PEs); at other widths the island {e count} is preserved, degrading to
    a flat machine when it does not divide [n_pes]. *)
val cxl_2x32 : n_pes:int -> t

val cxl_4x16 : n_pes:int -> t
val cxl_8x8 : n_pes:int -> t

(** Preset with uniform tiny latencies, for algorithm-level tests. *)
val tiny : n_pes:int -> t

(** The T3D preset variant for an interconnect kind. *)
val of_kind : Net.kind -> n_pes:int -> t

(** Named machine presets, for [--machine] style selection. *)
val presets : (string * (n_pes:int -> t)) list

(** Look up a preset by name; bare interconnect kind names ("torus",
    "mesh2d", "crossbar", ...) select the matching T3D variant. *)
val preset_of_string : string -> (n_pes:int -> t) option

val preset_names : string list
val lines : t -> int

(** Barrier cost at the configured width. *)
val barrier_cost : t -> int

(** Number of whole cache lines covering [words] words. *)
val lines_for_words : t -> int -> int

val validate : t -> string list
val pp : Format.formatter -> t -> unit
