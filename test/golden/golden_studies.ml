(* Golden pin of every experiment table beyond Tables 1-2 and the rivals:
   ablations A-C and E-G, the machine and coherence-cluster sweeps (all
   presets, one preset, a bare interconnect kind name, and a filter that
   empties the cluster table), and the remote, queue and cache sweeps —
   the spec four at a small fixed size (n=16, iters=1). The dune rule
   diffs this against golden_studies.expected: a swapped column, a wrong
   percentage basis or a changed title fails the diff and must be
   acknowledged with dune promote. Runs at -j4, re-proving that the
   tables do not depend on the job count. *)

open Ccdp_core
open Ccdp_workloads

let () =
  let ws = Suite.spec_four ~n:16 ~iters:1 () in
  let jobs = 4 and n_pes = 8 in
  let print = Experiment.print_tbl Format.std_formatter in
  List.iter print
    Experiment.
      [
        ablation_target_table ~n_pes ~jobs ws;
        ablation_technique_table ~n_pes ~jobs ws;
        ablation_coherence_table ~n_pes ~jobs ws;
        ablation_prefetch_clean_table ~n_pes ~jobs ws;
        ablation_vpg_levels_table ~n_pes ~jobs ws;
        ablation_topology_table ~n_pes:16 ~jobs ws;
      ];
  List.iter
    (fun only -> print (Experiment.machines_table ~n_pes ?only ~jobs ws))
    [ None; Some "t3d-mesh"; Some "crossbar" ];
  List.iter
    (fun only -> print (Experiment.clusters_table ~n_pes ?only ~jobs ws))
    [ None; Some "cxl-4x16"; Some "t3d" ];
  print
    (Experiment.sweep_remote_table ~n_pes ~points:[ 30; 300 ] ~jobs
       (Tomcatv.workload ~n:16 ~iters:1));
  (* the queue only matters on the software-pipelined path: on MXM its
     dropped and late columns are both 0 *)
  print
    (Experiment.sweep_queue_table ~n_pes ~points:[ 4; 16 ] ~jobs
       (Extras.opaque_sweep ~n:16));
  print
    (Experiment.sweep_cache_table ~n_pes ~points:[ 512; 2048 ] ~jobs
       (Mxm.workload ~n:16));
  Format.pp_print_flush Format.std_formatter ()
