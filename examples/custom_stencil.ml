(* Building your own workload with the IR DSL.

   A 9-point box smoother with red/black-ish phases, written from scratch:
   declare distributed arrays, build the loop nests, and hand the program
   to the same pipeline the SPEC kernels use. Shows that group-spatial
   detection covers the three row-offset neighbours with one prefetch, and
   that the column halos become vector prefetches.

   Run with: dune exec examples/custom_stencil.exe *)

open Ccdp_ir
open Ccdp_runtime
open Ccdp_core
module B = Builder
module F = Builder.F

let build ~n ~iters =
  let b = B.create ~name:"box9" () in
  B.param b "n" n;
  B.param b "niter" iters;
  let dist = Dist.block_along ~rank:2 ~dim:1 in
  B.array_ b "U" [| n; n |] ~dist;
  B.array_ b "W" [| n; n |] ~dist;
  let open B.A in
  let rd = B.rd b in
  let i = v "i" and j = v "j" in
  let init =
    B.doall b "j" (bc 0) (bc (n - 1))
      [
        B.for_ b "i" (bc 0)
          (bc (n - 1))
          [
            B.assign b "U" [ i; j ]
              F.((F.iv "i" * const 0.01) - (F.iv "j" * const 0.02));
            B.assign b "W" [ i; j ] (F.const 0.0);
          ];
      ]
  in
  (* nine-point box average: three full columns of the source *)
  let smooth src dst =
    B.doall b "j" ~sched:(Stmt.Static_aligned n) (bc 1)
      (bc (n - 2))
      [
        B.for_ b "i" (bc 1)
          (bc (n - 2))
          [
            B.assign b dst [ i; j ]
              F.(
                const (1.0 /. 9.0)
                * (rd src [ i -! c 1; j -! c 1 ]
                  + rd src [ i; j -! c 1 ]
                  + rd src [ i +! c 1; j -! c 1 ]
                  + rd src [ i -! c 1; j ]
                  + rd src [ i; j ]
                  + rd src [ i +! c 1; j ]
                  + rd src [ i -! c 1; j +! c 1 ]
                  + rd src [ i; j +! c 1 ]
                  + rd src [ i +! c 1; j +! c 1 ]));
          ];
      ]
  in
  let loop = B.for_ b "it" (bc 1) (bv "niter") [ smooth "U" "W"; smooth "W" "U" ] in
  B.finish b [ init; loop ]

let () =
  let n_pes = 8 in
  let program = build ~n:32 ~iters:2 in
  let cfg = Ccdp_machine.Config.t3d ~n_pes in
  let compiled = Pipeline.compile cfg program in

  Format.printf "Nine-point stencil, %d PEs.@.@." n_pes;
  Format.printf "%a@.@." Ccdp_analysis.Target.pp compiled.Pipeline.target;
  Format.printf "%a@.@." Ccdp_analysis.Schedule.pp_decisions compiled.Pipeline.decisions;

  (* each column of neighbours collapses to one lead: 9 stale reads per
     smoothing direction, 3 groups (one per source column) *)
  let counts = Ccdp_analysis.Annot.count compiled.Pipeline.plan in
  Format.printf "classes: %a@.@." Ccdp_analysis.Annot.pp_counts counts;

  let run mode plan =
    (Interp.run cfg compiled.Pipeline.program ~plan ~mode ()).Interp.cycles
  in
  let base = run Memsys.Base (Ccdp_analysis.Annot.empty ()) in
  let ccdp = run Memsys.Ccdp compiled.Pipeline.plan in
  Format.printf "BASE %d cycles, CCDP %d cycles: %.1f%% better.@." base ccdp
    (100.0 *. float_of_int (base - ccdp) /. float_of_int base);

  (* prove coherence numerically *)
  let r =
    Interp.run cfg compiled.Pipeline.program ~plan:compiled.Pipeline.plan
      ~mode:Memsys.Ccdp ()
  in
  let v = Verify.against_sequential program ~init:(fun _ -> ()) r in
  Format.printf "%a@." Verify.pp_report v;
  if not v.Verify.ok then exit 1
