(* The differential soundness subsystem, tested on itself:

   - a deterministic-seed smoke campaign (>= 200 generated programs through
     BASE and every CCDP variant with the staleness oracle armed) must be
     silent;
   - an intentionally unsound stale analysis (one mark dropped) must be
     caught, and by the oracle specifically;
   - the oracle must flag the Incoherent mode on a program built to leave
     stale copies behind, while CCDP on the same program stays clean;
   - the shrinker must preserve the failure predicate, reach a one-step
     minimum, and propose only validated candidates (Gen.validate).

   The static leg of the differential (certifier vs annotations vs oracle)
   is exercised in test_check.ml. *)

open Ccdp_test_support.Tutil
module Gen = Ccdp_fuzz.Gen
module Shrink = Ccdp_fuzz.Shrink
module Driver = Ccdp_fuzz.Driver
module Memsys = Ccdp_runtime.Memsys
module Interp = Ccdp_runtime.Interp

let quiet = fun _ -> ()

(* Two parallel epochs with cross-array, cross-column (j+1) reads, wrapped
   in a 2-iteration serial loop: on the second iteration every PE re-reads
   columns a neighbour rewrote. Incoherent caches serve stale copies. *)
let cross_desc : Gen.desc =
  {
    Gen.n = 8;
    dist_dim = 1;
    n_pes = 4;
    net = Ccdp_machine.Net.Uniform;
    pclean = false;
    wrap = true;
    epochs =
      [
        Gen.Par
          {
            sched = Gen.Cyclic;
            lo1 = true;
            opaque_hi = false;
            stmts =
              [ { Gen.dst = 0; doi = 0; reads = [ (1, 0, 1) ]; guarded = false } ];
          };
        Gen.Par
          {
            sched = Gen.Cyclic;
            lo1 = true;
            opaque_hi = false;
            stmts =
              [ { Gen.dst = 1; doi = 0; reads = [ (0, 0, 1) ]; guarded = false } ];
          };
      ];
  }

let run_mode desc mode =
  let cfg = Ccdp_machine.Config.t3d ~n_pes:desc.Gen.n_pes in
  Interp.run cfg ~oracle:true (Gen.build desc)
    ~plan:(Ccdp_analysis.Annot.empty ())
    ~mode ()

let campaign_suite =
  [
    case "seed-42 smoke campaign is silent (200 programs, all variants)"
      (fun () ->
        let s = Driver.campaign ~progress:quiet ~seed:42 ~count:200 () in
        check_int "programs" 200 s.Driver.s_programs;
        check_int "runs = programs x variants"
          (200 * List.length Driver.variant_names)
          s.Driver.s_runs;
        check_true "oracle actually consulted" (s.Driver.s_oracle_checks > 0);
        (match s.Driver.s_failures with
        | [] -> ()
        | f :: _ ->
            Alcotest.failf "unexpected failure: %a" (fun ppf () ->
                Format.fprintf ppf "#%d %s" f.Driver.f_index f.Driver.f_variant)
              ()));
    case "campaigns are deterministic per seed" (fun () ->
        let a = Driver.campaign ~progress:quiet ~seed:11 ~count:30 () in
        let b = Driver.campaign ~progress:quiet ~seed:11 ~count:30 () in
        check_int "same oracle checks" a.Driver.s_oracle_checks
          b.Driver.s_oracle_checks;
        check_int "same runs" a.Driver.s_runs b.Driver.s_runs);
  ]

let sabotage_suite =
  [
    case "dropping one stale mark is caught by the oracle (<= 60 programs)"
      (fun () ->
        let s =
          Driver.campaign
            ~mutate_stale:(Driver.drop_stale_mark 0)
            ~progress:quiet ~seed:7 ~count:60 ()
        in
        check_true "sabotage detected" (s.Driver.s_failures <> []);
        check_true "detected by the oracle, not only by numerics"
          (List.exists
             (fun f -> f.Driver.f_kind = Driver.Oracle)
             s.Driver.s_failures);
        List.iter
          (fun (f : Driver.failure) ->
            check_true "failures only on CCDP variants"
              (f.Driver.f_variant <> "BASE"))
          s.Driver.s_failures);
    case "shrunk reproducers still fail and re-lower" (fun () ->
        let s =
          Driver.campaign
            ~mutate_stale:(Driver.drop_stale_mark 0)
            ~progress:quiet ~seed:7 ~count:20 ()
        in
        match s.Driver.s_failures with
        | [] -> Alcotest.fail "expected at least one failure at this seed"
        | f :: _ ->
            check_true "shrunk description still fails"
              (Option.is_some
                 (Driver.check_desc
                    ~mutate_stale:(Driver.drop_stale_mark 0)
                    f.Driver.f_shrunk));
            check_true "reproducer text is parseable CRAFT"
              (let text = Driver.reproducer_text f.Driver.f_shrunk in
               let p = Ccdp_ir.Craft_parse.program text in
               p.Ccdp_ir.Program.arrays <> []));
    case "protocol sabotage: every fault class caught, zero escapes"
      (fun () ->
        let summaries = Driver.sabotage_campaign ~seed:42 ~count:40 () in
        check_int "one summary per case"
          (List.length Driver.sabotage_cases)
          (List.length summaries);
        List.iter
          (fun (s : Driver.sabotage_summary) ->
            let name = s.Driver.sb_case.Driver.sb_name in
            check_true (name ^ ": faults actually fired") (s.Driver.sb_fired > 0);
            check_true
              (name ^ ": the oracle witnessed the fault class")
              (s.Driver.sb_caught > 0);
            check_int (name ^ ": escapes") 0 s.Driver.sb_escapes)
          summaries);
    case "protocol sabotage campaigns are deterministic per seed" (fun () ->
        let a = Driver.sabotage_campaign ~seed:3 ~count:15 () in
        let b = Driver.sabotage_campaign ~seed:3 ~count:15 () in
        List.iter2
          (fun (x : Driver.sabotage_summary) (y : Driver.sabotage_summary) ->
            check_int "fired" x.Driver.sb_fired y.Driver.sb_fired;
            check_int "caught" x.Driver.sb_caught y.Driver.sb_caught;
            check_int "escapes" x.Driver.sb_escapes y.Driver.sb_escapes)
          a b);
  ]

let oracle_suite =
  [
    case "Incoherent mode trips the oracle on cross-column reuse" (fun () ->
        let r = run_mode cross_desc Memsys.Incoherent in
        check_true "stale hits witnessed"
          (Memsys.oracle_violation_count r.Interp.sys > 0);
        match Memsys.oracle_violations r.Interp.sys with
        | [] -> Alcotest.fail "expected witnesses"
        | v :: _ ->
            check_true "witness names a generated array"
              (List.mem v.Memsys.v_array Gen.array_names);
            check_true "cached copy predates memory"
              (v.Memsys.v_cached_version < v.Memsys.v_mem_version);
            check_true "stale write from an earlier epoch"
              (v.Memsys.v_write_epoch < v.Memsys.v_read_epoch));
    case "the same program is clean under every CCDP variant" (fun () ->
        match Driver.check_desc cross_desc with
        | None -> ()
        | Some (variant, _, detail) ->
            Alcotest.failf "%s failed:@ %s" variant detail);
    case "BASE (uncached shared data) never trips the oracle" (fun () ->
        let r = run_mode cross_desc Memsys.Base in
        check_int "violations" 0 (Memsys.oracle_violation_count r.Interp.sys));
  ]

let shrink_suite =
  [
    case "every one-step candidate of random descriptions still lowers"
      (fun () ->
        let rng = Random.State.make [| 99 |] in
        for _ = 1 to 50 do
          let d = Gen.generate rng in
          List.iter
            (fun c -> ignore (Gen.build c))
            (Shrink.candidates d)
        done);
    case "generated descriptions and all their candidates validate" (fun () ->
        let rng = Random.State.make [| 314 |] in
        for _ = 1 to 100 do
          let d = Gen.generate rng in
          (match Gen.validate d with
          | Ok () -> ()
          | Error m -> Alcotest.failf "generated description invalid: %s" m);
          List.iter
            (fun c ->
              match Gen.validate c with
              | Ok () -> ()
              | Error m -> Alcotest.failf "shrink candidate invalid: %s" m)
            (Shrink.candidates d)
        done);
    case "an out-of-bounds sweep column fails validation" (fun () ->
        let d =
          {
            Gen.n = 8;
            dist_dim = 0;
            n_pes = 2;
            net = Ccdp_machine.Net.Uniform;
            pclean = false;
            wrap = false;
            epochs = [ Gen.Sweep { src = 0; col = 50; dst = 1 } ];
          }
        in
        match Gen.validate d with
        | Ok () -> Alcotest.fail "expected a validation error"
        | Error m -> check_true "mentions the column" (m <> ""));
    case "a raising failure predicate never crashes minimization" (fun () ->
        let rng = Random.State.make [| 8 |] in
        let d = Gen.generate rng in
        let m =
          Shrink.minimize d ~still_fails:(fun _ -> failwith "flaky predicate")
        in
        (* no candidate "fails" under a crashing predicate: d is returned *)
        check_true "unchanged" (m = d));
    case "minimize skips invalid candidates without consuming budget"
      (fun () ->
        (* a sweep column valid only for the current edge: the n=8 shrink
           step would clamp it, but a hand-damaged clamp would be invalid —
           minimize must simply never select an invalid candidate *)
        let rng = Random.State.make [| 21 |] in
        let d = Gen.generate rng in
        let seen = ref [] in
        let still_fails c =
          seen := c :: !seen;
          false
        in
        ignore (Shrink.minimize d ~still_fails);
        List.iter
          (fun c ->
            match Gen.validate c with
            | Ok () -> ()
            | Error m -> Alcotest.failf "predicate saw invalid candidate: %s" m)
          !seen);
    case "minimize reaches the predicate's one-step minimum" (fun () ->
        let rng = Random.State.make [| 5 |] in
        (* draw until we have a 4-epoch description *)
        let rec draw () =
          let d = Gen.generate rng in
          if List.length d.Gen.epochs = 4 then d else draw ()
        in
        let d = draw () in
        let still_fails d' = List.length d'.Gen.epochs >= 2 in
        let m = Shrink.minimize d ~still_fails in
        check_int "epochs" 2 (List.length m.Gen.epochs);
        check_true "one-step minimal: no candidate still fails"
          (not (List.exists still_fails (Shrink.candidates m))));
    case "minimize respects its evaluation budget" (fun () ->
        (* the seed-6 description repeated to 16 epochs, under a predicate
           that keeps every epoch: each step first pays one rejected
           evaluation per epoch, so an unbounded shrink makes 747 *)
        let rng = Random.State.make [| 6 |] in
        let d = Gen.generate rng in
        let d =
          { d with Gen.epochs = List.concat (List.init 8 (fun _ -> d.Gen.epochs)) }
        in
        let epochs = List.length d.Gen.epochs and evals = ref 0 in
        let still_fails c =
          incr evals;
          List.length c.Gen.epochs = epochs
        in
        ignore (Shrink.minimize d ~still_fails);
        check_int "stops at the budget" 400 !evals);
  ]

let () =
  Alcotest.run "fuzz"
    [
      ("campaign", campaign_suite);
      ("sabotage", sabotage_suite);
      ("oracle", oracle_suite);
      ("shrink", shrink_suite);
    ]
