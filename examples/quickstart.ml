(* Quickstart: the CCDP pipeline on a 5-point Jacobi stencil.

   Demonstrates the whole story in one page:
   1. a distributed parallel program (columns block-distributed, halo reads),
   2. why caching shared data is unsafe without coherence (INCOHERENT mode
      produces wrong numbers),
   3. how the CCDP compiler passes fix it (stale reference analysis ->
      prefetch target analysis -> prefetch scheduling),
   4. and what it buys over the uncached BASE scheme.

   Run with: dune exec examples/quickstart.exe *)

open Ccdp_workloads
open Ccdp_runtime
open Ccdp_core

let () =
  let n_pes = 8 in
  let w = Extras.jacobi ~n:32 ~iters:2 in
  Format.printf "Workload: %s@.@." w.Workload.descr;

  (* 1. compile: the three CCDP phases *)
  let cfg = Ccdp_machine.Config.t3d ~n_pes in
  let compiled = Pipeline.compile cfg w.Workload.program in
  Format.printf "%a@.@." Pipeline.report compiled;

  (* 2. run the same program under four coherence regimes *)
  let run mode =
    let r = Experiment.run_mode ~n_pes mode w in
    let v = Verify.against_sequential w.Workload.program ~init:(fun _ -> ()) r in
    (r, v)
  in
  Format.printf "mode        cycles    coherent?@.";
  Format.printf "----------  --------  ---------@.";
  let wrong =
    List.filter
      (fun mode ->
        let r, v = run mode in
        Format.printf "%-10s  %8d  %s@." (Memsys.mode_name mode)
          r.Interp.cycles
          (if v.Verify.ok then "yes"
           else Printf.sprintf "NO (max err %.3g)" v.Verify.max_abs_diff);
        (not v.Verify.ok) && mode <> Memsys.Incoherent)
      [ Memsys.Base; Memsys.Incoherent; Memsys.Invalidate; Memsys.Ccdp ]
  in

  let base, _ = run Memsys.Base and ccdp, _ = run Memsys.Ccdp in
  Format.printf "@.CCDP improves on BASE by %.1f%% at %d PEs.@."
    (100.0
    *. float_of_int (base.Interp.cycles - ccdp.Interp.cycles)
    /. float_of_int base.Interp.cycles)
    n_pes;
  (* INC is wrong on purpose; a coherent scheme that is wrong is a bug *)
  if wrong <> [] then exit 1
