(* The coherence design space on one workload.

   Runs TOMCATV under every scheme the literature of the era offered:

     BASE  never cache shared data            (what CRAFT actually did)
     INV   cache + invalidate every epoch     (conservative compiler scheme)
     HSCD  cache + version self-invalidation  (hardware-supported schemes,
                                               paper Section 2 / Choi-Yew)
     CCDP  cache + compiler-directed prefetch (this paper)
     INC   cache + nothing                    (fast and WRONG)

   and prints the derived memory-system metrics for each.

   Run with: dune exec examples/coherence_schemes.exe *)

open Ccdp_workloads
open Ccdp_runtime
open Ccdp_core

let () =
  let n = 48 and iters = 2 and n_pes = 16 in
  let w = Tomcatv.workload ~n ~iters in
  Format.printf "Workload: %s at %d PEs@.@." w.Workload.descr n_pes;
  let run mode =
    let r = Experiment.run_mode ~n_pes mode w in
    let v = Verify.against_sequential w.Workload.program ~init:(fun _ -> ()) r in
    (r, v)
  in
  Format.printf
    "scheme  cycles     coherent  hit%%   coverage  remote/ref  invalidations@.";
  Format.printf
    "------  ---------  --------  -----  --------  ----------  -------------@.";
  List.iter
    (fun mode ->
      let r, v = run mode in
      let m = Metrics.of_result r in
      Format.printf "%-6s  %9d  %-8s  %5.1f  %7.1f%%  %10.3f  %13d@."
        (Memsys.mode_name mode) r.Interp.cycles
        (if v.Verify.ok then "yes" else "NO")
        (100. *. m.Metrics.hit_ratio)
        (100. *. m.Metrics.prefetch_coverage)
        m.Metrics.remote_ops_per_ref
        r.Interp.stats.Ccdp_machine.Stats.invalidations)
    [ Memsys.Base; Memsys.Invalidate; Memsys.Hscd; Memsys.Ccdp; Memsys.Incoherent ];
  Format.printf
    "@.CCDP turns the coherence mechanism itself into latency hiding: it is@.";
  Format.printf
    "the only coherent scheme whose line acquisitions are mostly prefetched.@."
