open Ccdp_machine
open Ccdp_runtime
open Ccdp_workloads
open Ccdp_test_support.Tutil

module Experiment = Ccdp_core.Experiment

(* The value oracle against the timed one-PE SEQ run it replaces: the
   whole image, padding and private arrays included, bit for bit. *)
let check_oracle ?init name cfg program =
  let program = Ccdp_ir.Program.inline program in
  let timed =
    Interp.run cfg program ~plan:(Ccdp_analysis.Annot.empty ())
      ~mode:Memsys.Seq ?init ()
  in
  let oracle = Seq_oracle.run cfg program ?init () in
  let tw = Memsys.words timed.Interp.sys and ow = Memsys.words oracle in
  check_int (name ^ ": image words") (Array.length tw) (Array.length ow);
  Array.iteri
    (fun a t ->
      if Int64.bits_of_float t <> Int64.bits_of_float ow.(a) then
        Alcotest.failf "%s: word %d is %h in the timed run, %h in the oracle"
          name a t ow.(a))
    tw

let examples_dir () =
  List.find Sys.file_exists [ "../examples"; "../../examples"; "examples" ]

(* overwrite every element of every array before the run *)
let scrambled_init (p : Ccdp_ir.Program.t) sys =
  List.iter
    (fun (a : Ccdp_ir.Array_decl.t) ->
      for lin = 0 to Ccdp_ir.Array_decl.elems a - 1 do
        Memsys.set sys a.name
          (Ccdp_ir.Array_decl.point_of_linear a lin)
          ((float_of_int ((lin * 37) mod 101) /. 7.0) -. 3.0)
      done)
    p.Ccdp_ir.Program.arrays

let tests =
  [
    case "identical states verify" (fun () ->
        let w = Extras.jacobi ~n:10 ~iters:1 in
        let r = Experiment.run_mode ~n_pes:4 Memsys.Base w in
        let rep = Verify.against_sequential w.Workload.program ~init:(fun _ -> ()) r in
        check_true "ok" rep.Verify.ok;
        check_true "checked elements" (rep.Verify.checked > 0);
        check_float "no diff" 0.0 rep.Verify.max_abs_diff);
    case "incoherent execution is caught with element detail" (fun () ->
        let w = Extras.jacobi ~n:10 ~iters:2 in
        let r = Experiment.run_mode ~n_pes:4 Memsys.Incoherent w in
        let rep = Verify.against_sequential w.Workload.program ~init:(fun _ -> ()) r in
        check_false "broken" rep.Verify.ok;
        check_true "has witnesses" (rep.Verify.mismatches <> []);
        let m = List.hd rep.Verify.mismatches in
        check_true "reports array name" (String.length m.Verify.array_name > 0));
    case "the CCDP scheme repairs the incoherence" (fun () ->
        let w = Extras.jacobi ~n:10 ~iters:2 in
        let r = Experiment.run_mode ~n_pes:4 Memsys.Ccdp w in
        let rep = Verify.against_sequential w.Workload.program ~init:(fun _ -> ()) r in
        check_true "coherent" rep.Verify.ok);
    case "invalidation also repairs it (the conservative way)" (fun () ->
        let w = Extras.jacobi ~n:10 ~iters:2 in
        let r = Experiment.run_mode ~n_pes:4 Memsys.Invalidate w in
        let rep = Verify.against_sequential w.Workload.program ~init:(fun _ -> ()) r in
        check_true "coherent" rep.Verify.ok);
    case "max_report caps the mismatch list" (fun () ->
        let w = Extras.jacobi ~n:10 ~iters:2 in
        let r = Experiment.run_mode ~n_pes:4 Memsys.Incoherent w in
        let seq =
          Experiment.run_mode ~n_pes:1 Memsys.Seq w
        in
        let rep =
          Verify.compare_states ~max_report:2 ~expected:seq.Interp.sys
            ~got:r.Interp.sys
            (Ccdp_ir.Program.inline w.Workload.program)
        in
        check_true "capped" (List.length rep.Verify.mismatches <= 2);
        Alcotest.(check string)
          "report"
          "verification FAILED (200 elements, max |diff| 0.04375)\n\
          \  G(1,1): expected 0, got -0.0046875000000000007\n\
          \  G(8,1): expected 0.23125000000000001, got 0.24062500000000001"
          (Format.asprintf "%a" Verify.pp_report rep));
    case "a NaN on one side is a mismatch, on both sides a match" (fun () ->
        let w = Extras.triad ~n:8 in
        let p = Ccdp_ir.Program.inline w.Workload.program in
        let a = Experiment.run_mode ~n_pes:2 Memsys.Base w in
        let b = Experiment.run_mode ~n_pes:2 Memsys.Base w in
        Memsys.set b.Interp.sys "XA" [| 3; 5 |] Float.nan;
        let rep =
          Verify.compare_states ~expected:a.Interp.sys ~got:b.Interp.sys p
        in
        check_false "one-sided NaN fails" rep.Verify.ok;
        (match rep.Verify.mismatches with
        | [ m ] ->
            Alcotest.(check string) "array" "XA" m.Verify.array_name;
            check_true "index" (m.Verify.index = [| 3; 5 |]);
            check_true "got NaN" (Float.is_nan m.Verify.got)
        | ms -> Alcotest.failf "%d mismatches, expected 1" (List.length ms));
        let rep =
          Verify.compare_states ~expected:b.Interp.sys ~got:a.Interp.sys p
        in
        check_false "NaN expected, number got fails" rep.Verify.ok;
        Memsys.set a.Interp.sys "XA" [| 3; 5 |] Float.nan;
        let rep =
          Verify.compare_states ~expected:a.Interp.sys ~got:b.Interp.sys p
        in
        check_true "NaN on both sides agrees" rep.Verify.ok);
  ]

let oracle_tests =
  let cfg1 = Config.t3d ~n_pes:1 in
  [
    case "image = timed SEQ image on every suite workload" (fun () ->
        List.iter
          (fun (w : Workload.t) -> check_oracle w.name cfg1 w.program)
          (Suite.all ~n:20 ~iters:2 ()));
    case "image = timed SEQ image under a non-trivial init" (fun () ->
        List.iter
          (fun (w : Workload.t) ->
            check_oracle ~init:(scrambled_init w.program) w.name cfg1 w.program)
          (Suite.all ~n:12 ~iters:2 ()));
    case "image = timed SEQ image on every shipped CRAFT example" (fun () ->
        let dir = examples_dir () in
        let files =
          List.filter
            (fun f -> Filename.check_suffix f ".craft")
            (List.sort compare (Array.to_list (Sys.readdir dir)))
        in
        check_true "examples found" (List.length files >= 3);
        List.iter
          (fun f ->
            check_oracle f cfg1
              (Ccdp_ir.Craft_parse.file (Filename.concat dir f)))
          files);
    case "out-of-bounds subscripts fail as in the timed run" (fun () ->
        let module B = Ccdp_ir.Builder in
        let b = B.create ~name:"oob" () in
        B.array_ b "R" [| 4 |];
        B.array_ b "O" [| 4 |];
        let p =
          let open B.A in
          B.finish b
            [
              B.for_ b "i" (bc 0) (bc 3)
                [ B.assign b "O" [ v "i" ] (B.rd b "R" [ v "i" +! c 1 ]) ];
            ]
        in
        let outcome f =
          match f () with _ -> "completed" | exception Invalid_argument m -> m
        in
        let timed =
          outcome (fun () ->
              Interp.run cfg1 p ~plan:(Ccdp_analysis.Annot.empty ())
                ~mode:Memsys.Seq ())
        in
        Alcotest.(check string)
          "timed run" "R: index 4 out of bounds 0..3 in dim 0" timed;
        Alcotest.(check string)
          "oracle" timed
          (outcome (fun () -> Seq_oracle.run cfg1 p ())));
    case "a nested loop's store reaches the enclosing registers" (fun () ->
        let p = nested_store_program () in
        check_oracle "nested" cfg1 p;
        let img = Seq_oracle.run cfg1 (Ccdp_ir.Program.inline p) () in
        for j = 0 to 7 do
          check_float "D(0,j): one nested loop" (float_of_int (1 - j))
            (Memsys.get img "D" [| 0; j |]);
          check_float "D(1,j): two nested loops" (float_of_int (10 - (3 * j)))
            (Memsys.get img "D" [| 1; j |])
        done;
        check_float "D(2,0): serial epoch" 12.0 (Memsys.get img "D" [| 2; 0 |]);
        let w = Workload.make ~name:"nested" ~descr:"nested stores" p in
        List.iter
          (fun mode ->
            let r = Experiment.run_mode ~n_pes:4 mode w in
            let rep = Verify.against_sequential p ~init:(fun _ -> ()) r in
            if not rep.Verify.ok then
              Alcotest.failf "%s: %a" (Memsys.mode_name mode) Verify.pp_report
                rep)
          Memsys.all_modes);
    case "image = timed SEQ image on 240 generated programs" (fun () ->
        let rng = Random.State.make [| 20261017 |] in
        let descs = List.init 240 (fun _ -> Ccdp_fuzz.Gen.generate rng) in
        let drawn f =
          List.length
            (List.filter
               (fun (d : Ccdp_fuzz.Gen.desc) -> List.exists f d.epochs)
               descs)
        in
        check_true "lock epochs drawn"
          (drawn (function Ccdp_fuzz.Gen.Lock _ -> true | _ -> false) > 0);
        check_true "reduction epochs drawn"
          (drawn (function Ccdp_fuzz.Gen.Red _ -> true | _ -> false) > 0);
        List.iteri
          (fun i (d : Ccdp_fuzz.Gen.desc) ->
            check_oracle (Printf.sprintf "program %d" i)
              (Config.of_kind d.net ~n_pes:1)
              (Ccdp_fuzz.Gen.build d))
          descs);
  ]

let () =
  Alcotest.run "verify" [ ("verify", tests); ("oracle", oracle_tests) ]
