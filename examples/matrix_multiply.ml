(* MXM deep dive: the paper's headline result.

   The middle loop of the triple nest is parallel, but each PE reads four
   (mostly remote) columns of A per outer iteration; in the uncached BASE
   version those remote latencies erase the parallel speedup (paper Section
   5.4). The CCDP compiler proves only the A references potentially stale
   and turns each into a vector prefetch of the column section.

   Run with: dune exec examples/matrix_multiply.exe *)

open Ccdp_workloads
open Ccdp_runtime
open Ccdp_core
open Ccdp_machine

let () =
  let n = 64 in
  let w = Mxm.workload ~n in
  Format.printf "Workload: %s@.@." w.Workload.descr;

  (* what the compiler finds *)
  let cfg = Config.t3d ~n_pes:8 in
  let compiled = Pipeline.compile cfg w.Workload.program in
  Format.printf "Analysis at 8 PEs:@.  %d of %d reads potentially stale@."
    compiled.Pipeline.stale.Ccdp_analysis.Stale.n_stale
    compiled.Pipeline.stale.Ccdp_analysis.Stale.n_reads;
  Format.printf "  %a@.@." Ccdp_analysis.Annot.pp_counts
    (Ccdp_analysis.Annot.count compiled.Pipeline.plan);
  Format.printf "%a@.@." Ccdp_analysis.Schedule.pp_decisions
    compiled.Pipeline.decisions;

  (* speedups across machine widths, exactly like paper Table 1/2 *)
  let rows = Experiment.evaluate ~pes:[ 1; 2; 4; 8; 16; 32 ] [ w ] in
  Format.printf "PEs   BASE speedup   CCDP speedup   improvement@.";
  List.iter
    (fun (r : Experiment.row) ->
      Format.printf "%-4d  %12.2f   %12.2f   %10.1f%%@." r.Experiment.pes
        (Experiment.base_speedup r) (Experiment.ccdp_speedup r)
        (Experiment.improvement r))
    rows;

  (* where the CCDP cycles go at 8 PEs *)
  let r =
    Interp.run cfg compiled.Pipeline.program ~plan:compiled.Pipeline.plan
      ~mode:Memsys.Ccdp ()
  in
  Format.printf "@.CCDP run detail at 8 PEs:@.%a@." Stats.pp r.Interp.stats
