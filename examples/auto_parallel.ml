(* From sequential code to CCDP, end to end.

   The paper's methodology (Section 5.2) starts by running the Polaris
   parallelizing compiler over sequential Fortran. This example does the
   whole journey inside this library:

     sequential loops
       -> dependence test + scalar privatization (Parallelize)
       -> DOALL epochs
       -> stale reference analysis / target analysis / prefetch scheduling
       -> simulated execution with numeric verification.

   Run with: dune exec examples/auto_parallel.exe *)

open Ccdp_ir
open Ccdp_analysis
open Ccdp_runtime
open Ccdp_core
module B = Builder
module F = Builder.F

(* a purely sequential red/black-ish relaxation with a private temporary,
   a genuine recurrence (left serial), and an accumulation (left serial) *)
let sequential_program n =
  let b = B.create ~name:"seqprog" () in
  B.param b "n" n;
  let dist = Dist.block_along ~rank:2 ~dim:1 in
  B.array_ b "U" [| n; n |] ~dist;
  B.array_ b "V" [| n; n |] ~dist;
  let open B.A in
  let rd = B.rd b in
  let i = v "i" and j = v "j" in
  let init =
    B.for_ b "j" (bc 0)
      (bc (n - 1))
      [
        B.for_ b "i" (bc 0)
          (bc (n - 1))
          [
            B.assign b "U" [ i; j ] F.((F.iv "i" + F.iv "j") * const 0.05);
            B.assign b "V" [ i; j ] (F.const 0.0);
          ];
      ]
  in
  (* parallelizable: independent columns, privatizable temporary *)
  let relax =
    B.for_ b "j" (bc 1)
      (bc (n - 2))
      [
        B.for_ b "i" (bc 1)
          (bc (n - 2))
          [
            Stmt.Sassign
              ("t", F.(rd "U" [ i; j -! c 1 ] + rd "U" [ i; j +! c 1 ]));
            B.assign b "V" [ i; j ]
              F.((sv "t" + rd "U" [ i -! c 1; j ] + rd "U" [ i +! c 1; j ])
                 * const 0.25);
          ];
      ]
  in
  (* NOT parallelizable: a first-order recurrence along j *)
  let recurrence =
    B.for_ b "j" (bc 1)
      (bc (n - 2))
      [
        B.for_ b "i" (bc 1)
          (bc (n - 2))
          [
            B.assign b "V" [ i; j ]
              F.(rd "V" [ i; j ] + (rd "V" [ i; j -! c 1 ] * const 0.5));
          ];
      ]
  in
  (* NOT parallelizable: scalar accumulation (no reduction recognition) *)
  let accumulate =
    [
      Stmt.Sassign ("sum", F.const 0.0);
      B.for_ b "k" (bc 1)
        (bc (n - 2))
        [ Stmt.Sassign ("sum", F.(sv "sum" + rd "V" [ v "k"; c 1 ])) ];
      B.assign b "U" [ c 0; c 0 ] (F.sv "sum");
    ]
  in
  B.finish b ([ init; relax; recurrence ] @ accumulate)

let () =
  let n = 32 and n_pes = 8 in
  let p = sequential_program n in

  (* 1. Polaris-style parallelization *)
  let p', report = Parallelize.transform p in
  Format.printf "%a@.@." Parallelize.pp_report report;

  (* 2. the CCDP pipeline over the auto-parallelized program *)
  let cfg = Ccdp_machine.Config.t3d ~n_pes in
  let compiled = Pipeline.compile cfg p' in
  Format.printf "stale: %d of %d reads; %a@.@."
    compiled.Pipeline.stale.Stale.n_stale compiled.Pipeline.stale.Stale.n_reads
    Annot.pp_counts
    (Annot.count compiled.Pipeline.plan);

  (* 3. run and verify *)
  let run mode plan =
    Interp.run cfg compiled.Pipeline.program ~plan ~mode ()
  in
  let seq =
    Interp.run (Ccdp_machine.Config.t3d ~n_pes:1) (Program.inline p)
      ~plan:(Annot.empty ()) ~mode:Memsys.Seq ()
  in
  let base = run Memsys.Base (Annot.empty ()) in
  let ccdp = run Memsys.Ccdp compiled.Pipeline.plan in
  let v = Verify.against_sequential p' ~init:(fun _ -> ()) ccdp in
  Format.printf "sequential: %8d cycles@." seq.Interp.cycles;
  Format.printf "BASE x%d:   %8d cycles (%.2fx)@." n_pes base.Interp.cycles
    (float_of_int seq.Interp.cycles /. float_of_int base.Interp.cycles);
  Format.printf "CCDP x%d:   %8d cycles (%.2fx)  %s@." n_pes ccdp.Interp.cycles
    (float_of_int seq.Interp.cycles /. float_of_int ccdp.Interp.cycles)
    (if v.Verify.ok then "- verified" else "- WRONG");
  if not v.Verify.ok then exit 1
