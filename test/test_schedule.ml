open Ccdp_ir
open Ccdp_analysis
open Ccdp_test_support.Tutil
module B = Builder
module F = Builder.F

let dist = Dist.block_along ~rank:2 ~dim:1

let compile ?tuning (p : Program.t) =
  let cfg = Ccdp_machine.Config.t3d ~n_pes:4 in
  Ccdp_core.Pipeline.compile cfg ?tuning p

let builder () =
  let b = B.create ~name:"sc" () in
  B.param b "n" 16;
  B.array_ b "A" [| 16; 16 |] ~dist;
  B.array_ b "O" [| 16; 16 |] ~dist;
  b

let init_epoch b =
  let open B.A in
  B.doall b "j" (bc 0) (bc 15)
    [ B.for_ b "i" (bc 0) (bc 15) [ B.assign b "A" [ v "i"; v "j" ] (F.const 1.0) ] ]

let techniques (c : Ccdp_core.Pipeline.t) =
  List.map (fun (d : Schedule.decision) -> d.Schedule.technique) c.Ccdp_core.Pipeline.decisions

(* stale serial loop on PE 0 reading a remote column *)
let serial_loop_program b ~hi =
  let open B.A in
  [
    init_epoch b;
    Stmt.Sassign ("acc", F.const 0.0);
    B.for_ b "k" (bc 0) hi
      [ Stmt.Sassign ("acc", F.(sv "acc" + B.rd b "A" [ v "k"; c 9 ])) ];
  ]

let serial_cases =
  [
    case "case 1: serial loop, known bounds, fitting section -> VPG" (fun () ->
        let b = builder () in
        let p = B.finish b (serial_loop_program b ~hi:(B.A.bc 15)) in
        match techniques (compile p) with
        | [ Schedule.Vpg ] -> ()
        | ts ->
            Alcotest.failf "expected [Vpg], got %d decisions%s" (List.length ts)
              (if List.mem Schedule.Sp ts then " (Sp)" else ""));
    case "case 1 fallback: unknown bounds -> SP" (fun () ->
        let b = builder () in
        let p =
          B.finish b
            (serial_loop_program b ~hi:(Bound.opaque (Affine.const 15)))
        in
        (match techniques (compile p) with
        | [ Schedule.Sp ] -> ()
        | _ -> Alcotest.fail "expected [Sp]"));
    case "SP distance respects the queue clamp" (fun () ->
        let b = builder () in
        let p =
          B.finish b (serial_loop_program b ~hi:(Bound.opaque (Affine.const 15)))
        in
        let c = compile p in
        Hashtbl.iter
          (fun _ op ->
            match op with
            | Annot.Pipelined { distance; _ } ->
                check_true "fits queue" (distance * 4 <= 16)
            | _ -> ())
          c.Ccdp_core.Pipeline.plan.Annot.ops);
    case "VPG refused when the loop writes the same array" (fun () ->
        let b = builder () in
        let open B.A in
        let p =
          B.finish b
            [
              init_epoch b;
              B.for_ b "k" (bc 1) (bc 14)
                [
                  B.assign b "A" [ v "k"; c 9 ]
                    F.(B.rd b "A" [ v "k" -! c 1; c 9 ] * const 0.5);
                ];
            ]
        in
        let c = compile p in
        check_false "no vector op"
          (Hashtbl.fold
             (fun _ op acc ->
               acc || match op with Annot.Vector _ -> true | _ -> false)
             c.Ccdp_core.Pipeline.plan.Annot.ops false));
    case "VPG refused when the section exceeds the capacity bound" (fun () ->
        let b = builder () in
        let tuning =
          { Schedule.default_tuning with Schedule.vpg_max_words = Some 4 }
        in
        let p = B.finish b (serial_loop_program b ~hi:(B.A.bc 15)) in
        (match techniques (compile ~tuning p) with
        | [ Schedule.Sp ] | [ Schedule.Mbp ] -> ()
        | [ Schedule.Vpg ] -> Alcotest.fail "capacity ignored"
        | _ -> Alcotest.fail "unexpected decisions"));
  ]

let doall_cases =
  [
    case "case 2: static DOALL with known bounds -> VPG" (fun () ->
        let b = builder () in
        let open B.A in
        let p =
          B.finish b
            [
              init_epoch b;
              B.doall b "j" (bc 0) (bc 14)
                [
                  B.for_ b "i" (bc 0) (bc 15)
                    [ B.assign b "O" [ v "i"; v "j" ] (B.rd b "A" [ v "i"; v "j" +! c 1 ]) ];
                ];
            ]
        in
        (match techniques (compile p) with
        | [ Schedule.Vpg ] -> ()
        | _ -> Alcotest.fail "expected [Vpg]"));
    case "case 3: dynamic DOALL as the LSC -> MBP or demotion, never VPG/SP"
      (fun () ->
        let b = builder () in
        let open B.A in
        (* references sit directly in the DOALL body: the DOALL itself is
           the inner loop of Fig. 2 case 3; the scalar preamble provides a
           moving window *)
        let p =
          B.finish b
            [
              init_epoch b;
              B.doall b ~sched:(Stmt.Dynamic 2) "j" (bc 0) (bc 14)
                [
                  Stmt.Sassign ("t0", F.(F.iv "j" * const 2.0));
                  Stmt.Sassign ("t1", F.((sv "t0" * sv "t0") + (sv "t0" * const 0.5)));
                  Stmt.Sassign ("t2", F.((sv "t1" * sv "t1") - (sv "t1" * const 0.25)));
                  Stmt.Sassign ("t3", F.((sv "t2" * sv "t2") + (sv "t2" * const 0.125)));
                  B.assign b "O" [ c 0; v "j" ]
                    F.(B.rd b "A" [ c 0; v "j" +! c 1 ] + sv "t3");
                ];
            ]
        in
        let ts = techniques (compile p) in
        check_true "some decision" (ts <> []);
        List.iter
          (fun t ->
            check_true "mbp or demoted" (t = Schedule.Mbp || t = Schedule.Demoted))
          ts);
    case "a serial loop inside a dynamic task may still vector-prefetch"
      (fun () ->
        let b = builder () in
        let open B.A in
        let p =
          B.finish b
            [
              init_epoch b;
              B.doall b ~sched:(Stmt.Dynamic 2) "j" (bc 0) (bc 14)
                [
                  B.for_ b "i" (bc 0) (bc 15)
                    [
                      B.assign b "O" [ v "i"; v "j" ]
                        (B.rd b "A" [ v "i"; v "j" +! c 1 ]);
                    ];
                ];
            ]
        in
        (match techniques (compile p) with
        | [ Schedule.Vpg ] -> ()
        | _ -> Alcotest.fail "expected VPG before the inner serial loop"));
    case "case 5: a loop containing if-statements only moves back" (fun () ->
        let b = builder () in
        let open B.A in
        let p =
          B.finish b
            [
              init_epoch b;
              B.doall b "j" (bc 0) (bc 14)
                [
                  B.for_ b "i" (bc 1) (bc 14)
                    [
                      Stmt.Sassign ("t", F.(B.rd b "O" [ v "i"; v "j" ] * const 2.0));
                      Stmt.If
                        ( Stmt.Icond (Stmt.Lt, v "i", c 8),
                          [
                            B.assign b "O" [ v "i"; v "j" ]
                              (B.rd b "A" [ v "i"; v "j" +! c 1 ]);
                          ],
                          [] );
                    ];
                ];
            ]
        in
        List.iter
          (fun t ->
            check_true "mbp or demoted" (t = Schedule.Mbp || t = Schedule.Demoted))
          (techniques (compile p)));
    case "case 4: serial code segments move back" (fun () ->
        let b = builder () in
        let open B.A in
        let p =
          B.finish b
            [
              init_epoch b;
              Stmt.Sassign ("t0", F.(B.rd b "O" [ c 0; c 0 ] * const 2.0));
              Stmt.Sassign ("t1", F.((sv "t0" * sv "t0") + (sv "t0" * const 1.0)));
              Stmt.Sassign ("t2", F.((sv "t1" * sv "t0") - (sv "t1" * const 2.0)));
              Stmt.Sassign ("t3", F.((sv "t2" * sv "t2") + (sv "t2" * const 0.5)));
              Stmt.Sassign ("t4", F.((sv "t3" * sv "t3") - (sv "t3" * const 0.25)));
              B.assign b "O" [ c 1; c 1 ] F.(B.rd b "A" [ c 0; c 9 ] + sv "t4");
            ]
        in
        let c = compile p in
        let mbp =
          List.filter (fun t -> t = Schedule.Mbp) (techniques c)
        in
        check_true "at least one moved back" (List.length mbp >= 1));
  ]

let tuning_cases =
  [
    case "disabling all techniques demotes every target to bypass" (fun () ->
        let b = builder () in
        let tuning =
          {
            Schedule.default_tuning with
            Schedule.allow_vpg = false;
            allow_sp = false;
            allow_mbp = false;
          }
        in
        let p = B.finish b (serial_loop_program b ~hi:(B.A.bc 15)) in
        let c = compile ~tuning p in
        List.iter (fun t -> check_true "demoted" (t = Schedule.Demoted)) (techniques c);
        let counts = Annot.count c.Ccdp_core.Pipeline.plan in
        check_int "no ops" 0
          (counts.Annot.n_vector + counts.Annot.n_pipelined + counts.Annot.n_back);
        check_true "bypassed" (counts.Annot.n_bypass >= 1));
    case "vpg off falls through to sp" (fun () ->
        let b = builder () in
        let tuning = { Schedule.default_tuning with Schedule.allow_vpg = false } in
        let p = B.finish b (serial_loop_program b ~hi:(B.A.bc 15)) in
        (match techniques (compile ~tuning p) with
        | [ Schedule.Sp ] -> ()
        | _ -> Alcotest.fail "expected [Sp]"));
    case "mbp minimum distance demotes tiny windows" (fun () ->
        let b = builder () in
        let open B.A in
        (* target with an empty moving window directly in a dynamic loop *)
        let p =
          B.finish b
            [
              init_epoch b;
              B.doall b ~sched:(Stmt.Dynamic 4) "j" (bc 0) (bc 14)
                [
                  B.assign b "O" [ c 0; v "j" ] (B.rd b "A" [ c 0; v "j" +! c 1 ]);
                ];
            ]
        in
        (match techniques (compile p) with
        | [ Schedule.Demoted ] -> ()
        | _ -> Alcotest.fail "expected demotion"));
  ]

let two_level =
  [
    case "vpg_levels=2 hoists past the epoch-internal parent loop" (fun () ->
        let b = builder () in
        let open B.A in
        let p =
          B.finish b
            [
              init_epoch b;
              B.doall b "j" (bc 0) (bc 14)
                [
                  B.for_ b "i" (bc 0) (bc 15)
                    [ B.assign b "O" [ v "i"; v "j" ] (B.rd b "A" [ v "i"; v "j" +! c 1 ]) ];
                ];
            ]
        in
        let tuning = { Schedule.default_tuning with Schedule.vpg_levels = 2 } in
        let c = compile ~tuning p in
        let found_two_level =
          Hashtbl.fold
            (fun _ op acc ->
              acc
              || match op with Annot.Vector { inner = Some _; _ } -> true | _ -> false)
            c.Ccdp_core.Pipeline.plan.Annot.ops false
        in
        check_true "two-level op" found_two_level);
    case "two-level pulls never cross the epoch boundary" (fun () ->
        let b = builder () in
        let open B.A in
        (* the only parent is the structure loop: must stay one-level *)
        let p =
          B.finish b
            [
              init_epoch b;
              B.for_ b "t" (bc 1) (bc 2)
                [
                  B.doall b "j" (bc 0) (bc 14)
                    [
                      B.assign b "O" [ c 0; v "j" ]
                        (B.rd b "A" [ c 0; v "j" +! c 1 ]);
                    ];
                ];
            ]
        in
        let tuning = { Schedule.default_tuning with Schedule.vpg_levels = 2 } in
        let c = compile ~tuning p in
        Hashtbl.iter
          (fun _ op ->
            match op with
            | Annot.Vector { inner; _ } -> check_true "one-level" (inner = None)
            | _ -> ())
          c.Ccdp_core.Pipeline.plan.Annot.ops);
  ]

let covered_promotion =
  [
    case "covered members of an MBP-scheduled loop group get their own ops" (fun () ->
        let b = builder () in
        let open B.A in
        (* dynamic loop with a spatial group and a fat window *)
        let heavy v0 =
          F.((v0 * v0) + (v0 * const 0.5) - (v0 * const 0.25) + const 1.0)
        in
        let p =
          B.finish b
            [
              init_epoch b;
              B.doall b ~sched:(Stmt.Dynamic 2) "j" (bc 0) (bc 14)
                [
                  Stmt.Sassign ("s", F.iv "j");
                  Stmt.Sassign ("t0", heavy (F.sv "s"));
                  Stmt.Sassign ("t1", heavy (F.sv "t0"));
                  Stmt.Sassign ("t2", heavy (F.sv "t1"));
                  B.assign b "O" [ c 1; v "j" ]
                    F.(
                      B.rd b "A" [ c 0; v "j" +! c 1 ]
                      + B.rd b "A" [ c 1; v "j" +! c 1 ]
                      + sv "t2");
                ];
            ]
        in
        let c = compile p in
        (* both A references must end Lead-with-Back or Bypass, never
           Covered (unsafe under MBP timing) *)
        Hashtbl.iter
          (fun _ cls ->
            check_true "no covered"
              (match cls with Annot.Covered _ -> false | _ -> true))
          c.Ccdp_core.Pipeline.plan.Annot.classes);
  ]

(* Only prefetch scheduling reads the tuning, so rescheduling a compile's
   front end must reproduce the direct compile under that tuning: the same
   plan text and the same decisions. Checked on every suite workload and a
   generated corpus, under the fuzz campaign's (and Ablation B's) four
   single-technique tunings plus Ablation F's two-level pull and tight SP/MBP
   bounds. The clustered compile at one-PE islands must equal the flat one:
   the fuzz campaign reuses the flat compile for it. *)
let reschedule_cases =
  let module Pipeline = Ccdp_core.Pipeline in
  let module Config = Ccdp_machine.Config in
  let module Gen = Ccdp_fuzz.Gen in
  let t0 = Schedule.default_tuning in
  let tunings =
    [
      t0;
      { t0 with Schedule.allow_sp = false; allow_mbp = false };
      { t0 with Schedule.allow_vpg = false; allow_mbp = false };
      { t0 with Schedule.allow_vpg = false; allow_sp = false };
      { t0 with Schedule.vpg_levels = 2 };
      { t0 with Schedule.sp_max = 2; mbp_min_cycles = 8 };
    ]
  in
  let text (c : Pipeline.t) =
    Format.asprintf "%a@.%a" Annot.pp c.plan Schedule.pp_decisions
      c.decisions
  in
  let agrees ?prefetch_clean name cfg program =
    let front = Pipeline.compile cfg ?prefetch_clean program in
    List.iteri
      (fun k tuning ->
        let direct = Pipeline.compile cfg ~tuning ?prefetch_clean program in
        let re = Pipeline.reschedule ~tuning front in
        let name = Printf.sprintf "%s, tuning #%d" name k in
        Alcotest.(check string) name (text direct) (text re);
        check_true name (direct.decisions = re.decisions && re.tuning = tuning))
      tunings
  in
  let corpus f =
    let rng = Random.State.make [| 21 |] in
    for i = 0 to 59 do
      let d = Gen.generate rng in
      f (Printf.sprintf "program #%d" i) d (Gen.build d)
    done
  in
  [
    case "rescheduling equals a direct compile on the suite" (fun () ->
        List.iter
          (fun (w : Ccdp_workloads.Workload.t) ->
            agrees w.name (Config.t3d ~n_pes:16) w.program)
          (Ccdp_workloads.Suite.all ~n:32 ~iters:1 ()));
    case "rescheduling equals a direct compile on a fuzz corpus" (fun () ->
        corpus (fun name d program ->
            agrees ~prefetch_clean:d.Gen.pclean name
              (Config.of_kind d.Gen.net ~n_pes:d.Gen.n_pes)
              program));
    case "a clustered compile at one-PE islands equals the flat one"
      (fun () ->
        corpus (fun name d program ->
            let cfg = Config.of_kind d.Gen.net ~n_pes:d.Gen.n_pes in
            let flat = Pipeline.compile cfg program in
            let clu =
              Pipeline.compile ~cluster_coherent:true
                { cfg with Config.cluster_pes = 1 }
                program
            in
            Alcotest.(check string) name (text flat) (text clu)));
  ]

let () =
  Alcotest.run "schedule"
    [
      ("serial-cases", serial_cases);
      ("doall-cases", doall_cases);
      ("tuning", tuning_cases);
      ("two-level-vpg", two_level);
      ("covered-promotion", covered_promotion);
      ("reschedule", reschedule_cases);
    ]
