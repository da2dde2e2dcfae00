type kind = Uniform | Torus3d | Mesh2d | Crossbar

let kind_name = function
  | Uniform -> "uniform"
  | Torus3d -> "torus3d"
  | Mesh2d -> "mesh2d"
  | Crossbar -> "crossbar"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "uniform" | "flat" -> Some Uniform
  | "torus3d" | "torus" | "t3d" -> Some Torus3d
  | "mesh2d" | "mesh" -> Some Mesh2d
  | "crossbar" | "xbar" -> Some Crossbar
  | _ -> None

let all_kinds = [ Uniform; Torus3d; Mesh2d; Crossbar ]
let kind_names = List.map kind_name all_kinds

(* 3-D torus geometry (the Cray T3D's interconnect). Near-cubic
   factorization: prefer nx >= ny >= nz with nx*ny*nz >= n, exact when n
   factors nicely (powers of two always do). *)
type torus = { nx : int; ny : int; nz : int }

let torus_of_pes n =
  if n <= 0 then invalid_arg "Net.torus_of_pes: n_pes <= 0";
  let cube = int_of_float (Float.round (Float.cbrt (float_of_int n))) in
  let best = ref (n, 1, 1) in
  let volume (a, b, c) = a * b * c in
  let badness (a, b, c) = (a - c) + abs (volume (a, b, c) - n) in
  for nz = 1 to cube + 1 do
    for ny = nz to n do
      if ny * nz <= n then begin
        let nx = (n + (ny * nz) - 1) / (ny * nz) in
        let cand = (max nx ny, ny, nz) in
        if volume cand >= n && badness cand < badness !best then best := cand
      end
    done
  done;
  let nx, ny, nz = !best in
  { nx; ny; nz }

let torus_coords t pe =
  let x = pe mod t.nx in
  let y = pe / t.nx mod t.ny in
  let z = pe / (t.nx * t.ny) in
  (x, y, z)

let ring_dist n a b =
  let d = abs (a - b) in
  min d (n - d)

let torus_hops t a b =
  let xa, ya, za = torus_coords t a and xb, yb, zb = torus_coords t b in
  ring_dist t.nx xa xb + ring_dist t.ny ya yb + ring_dist t.nz za zb

let torus_diameter t = (t.nx / 2) + (t.ny / 2) + (t.nz / 2)

(* Near-square factorization nx >= ny with nx * ny >= n: the 2-D analogue
   of the torus's near-cubic packing. *)
let mesh_dims n =
  let best = ref (n, 1) in
  let badness (a, b) = a - b + abs ((a * b) - n) in
  for b = 1 to n do
    if b * b <= n then begin
      let a = (n + b - 1) / b in
      if badness (a, b) < badness !best then best := (a, b)
    end
  done;
  !best

type geom =
  | Guniform
  | Gtorus of torus
  | Gmesh of int * int  (** nx, ny *)
  | Gxbar

type t = {
  kind : kind;
  n_pes : int;
  hop : int;
  cluster_pes : int;  (** PEs per coherence cluster; 1 = flat machine *)
  geom : geom;
  costs : int array;
      (** pre-folded [hop * hops src dst] matrix, row-major [src * n_pes +
          dst], with same-cluster pairs folded to 0 (intra-cluster
          transfers ride the island's local fabric); [[||]] when every
          pair costs zero (per-access lookups then skip the table
          entirely) *)
  link_busy : int array;  (** per destination port: next free cycle *)
  link_depth : int array;  (** transfers queued in the current busy burst *)
  bus_demand : int array;
      (** snoop buses: cycles of service demanded since the last barrier,
          one slot per island and the machine-wide bus last *)
}

let hops_geom geom a b =
  match geom with
  | Guniform -> 0
  | Gtorus torus -> torus_hops torus a b
  | Gmesh (nx, _) ->
      let ax = a mod nx and ay = a / nx in
      let bx = b mod nx and by = b / nx in
      abs (ax - bx) + abs (ay - by)
  | Gxbar -> if a = b then 0 else 1

let diameter_geom geom n_pes =
  match geom with
  | Guniform -> 0
  | Gtorus torus -> torus_diameter torus
  | Gmesh (nx, ny) -> nx - 1 + (ny - 1)
  | Gxbar -> if n_pes > 1 then 1 else 0

let create ?(hop = 0) ?(cluster_pes = 1) kind ~n_pes =
  if n_pes <= 0 then invalid_arg "Net.create: n_pes must be positive";
  if hop < 0 then invalid_arg "Net.create: hop must be >= 0";
  if cluster_pes <= 0 then invalid_arg "Net.create: cluster_pes must be positive";
  if n_pes mod cluster_pes <> 0 then
    invalid_arg "Net.create: cluster_pes must divide n_pes";
  let geom =
    match kind with
    | Uniform -> Guniform
    | Torus3d -> Gtorus (torus_of_pes n_pes)
    | Mesh2d ->
        let nx, ny = mesh_dims n_pes in
        Gmesh (nx, ny)
    | Crossbar -> Gxbar
  in
  let costs =
    if hop = 0 || kind = Uniform then [||]
    else
      Array.init (n_pes * n_pes) (fun i ->
          let src = i / n_pes and dst = i mod n_pes in
          if src / cluster_pes = dst / cluster_pes then 0
          else hop * hops_geom geom src dst)
  in
  {
    kind;
    n_pes;
    hop;
    cluster_pes;
    geom;
    costs;
    link_busy = Array.make n_pes 0;
    link_depth = Array.make n_pes 0;
    bus_demand = Array.make ((n_pes / cluster_pes) + 1) 0;
  }

let kind t = t.kind
let hops t a b = hops_geom t.geom a b
let diameter t = diameter_geom t.geom t.n_pes
let cluster_pes t = t.cluster_pes
let n_clusters t = t.n_pes / t.cluster_pes
let cluster_of t pe = pe / t.cluster_pes
let same_cluster t a b = a / t.cluster_pes = b / t.cluster_pes

let cost t ~src ~dst =
  if t.costs == [||] then 0 else t.costs.((src * t.n_pes) + dst)

(* ------------------------------------------------------------------ *)
(* Link occupancy                                                      *)
(* ------------------------------------------------------------------ *)

(* The contention model charges queueing delay at the bottleneck link of a
   transfer — the destination memory port (every topology here funnels a
   remote read's final hop into the owner PE's node). A port stays busy for
   [hold] cycles per transfer; a transfer arriving while the port is busy
   waits until the pending burst drains. [depth] counts transfers in the
   current burst (including this one) — its maximum over a run is the peak
   link occupancy. Deterministic: state is a pure function of the acquire
   sequence, which both engines replay in identical order. *)

let acquire t ~dst ~now ~hold =
  let busy = t.link_busy.(dst) in
  if now >= busy then begin
    t.link_busy.(dst) <- now + hold;
    t.link_depth.(dst) <- 1;
    0
  end
  else begin
    t.link_depth.(dst) <- t.link_depth.(dst) + 1;
    t.link_busy.(dst) <- busy + hold;
    busy - now
  end

let link_depth t ~dst = t.link_depth.(dst)

(* Bus [n_clusters], after the islands' buses. *)
let machine_bus t = n_clusters t

(* A snoop bus is a resource every coherence transaction of its domain
   (miss fetch, upgrade, write-allocate) serializes through: the whole
   machine under MSI/MESI, one island under the Clustered mode. It
   cannot reuse the port model's next-free-cycle booking: the engines
   execute a parallel epoch PE-major (each PE's whole epoch replayed on its
   private clock), so a bus timestamped against one PE's finished wall
   clock would charge every later PE the earlier PEs' entire progression
   as queueing — a quadratic simulation artifact. Instead the bus is a
   throughput bottleneck: [bus_demand.(bus)] accumulates the cycles of
   service demanded since the last barrier, and a transaction at local
   time [now] waits for whatever backlog the bus cannot have drained in
   the [now - since] cycles its PE has been past that barrier. Per-PE
   demand stays almost free (a PE's own elapsed time outruns its own
   holds); the backlog — and with it snooping's scaling wall — grows with
   every PE sharing the bus. Buses are independent, so one island's storm
   never delays another's. Deterministic and replay-order independent
   enough: both engines book the identical global sequence. Returns the
   delay; [bus_depth] turns it into the transactions queued ahead. *)
let acquire_bus t ~bus ~now ~since ~hold =
  let backlog = t.bus_demand.(bus) - (now - since) in
  t.bus_demand.(bus) <- t.bus_demand.(bus) + hold;
  if backlog > 0 then backlog else 0

let bus_depth ~delay ~hold = (delay / hold) + 1

let reset_links t =
  Array.fill t.link_busy 0 t.n_pes 0;
  Array.fill t.link_depth 0 t.n_pes 0;
  Array.fill t.bus_demand 0 (Array.length t.bus_demand) 0
