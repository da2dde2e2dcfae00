(* The static coherence certifier:

   - every suite workload and the shipped CRAFT example certify clean;
   - the independent may-stale derivation over-approximates (and on this
     corpus coincides with) the pipeline's stale analysis;
   - each fault class raises its specific stable diagnostic code — the
     fuzzer's stale-mark drop as CCDP-W001, hand-damaged plan tables as
     W002/W005/W006/W007, shrunken budgets as W008, builder-built races as
     W003, annotation/dataflow disagreement as W004;
   - source spans survive from CRAFT text into diagnostics; builder
     programs stay synthetic;
   - the three-way differential (static / annotation / dynamic oracle)
     reports zero static escapes under fault injection. *)

open Ccdp_test_support.Tutil
module Config = Ccdp_machine.Config
module Pipeline = Ccdp_core.Pipeline
module Check = Ccdp_check.Check
module Diag = Ccdp_check.Diag
module Lint = Ccdp_check.Lint
module Annot = Ccdp_analysis.Annot
module Stale = Ccdp_analysis.Stale
module Schedule = Ccdp_analysis.Schedule
module Suite = Ccdp_workloads.Suite
module Workload = Ccdp_workloads.Workload
module Gen = Ccdp_fuzz.Gen
module Driver = Ccdp_fuzz.Driver
module B = Ccdp_ir.Builder

let cfg = Config.t3d ~n_pes:16

let compile ?tuning ?prefetch_clean ?mutate_stale p =
  Pipeline.compile cfg ?tuning ?prefetch_clean ?mutate_stale p

let workload name =
  (Suite.find name).Ccdp_workloads.Workload.program

let codes ds =
  List.sort_uniq compare (List.map (fun d -> Diag.code_string d.Diag.code) ds)

let has_code c ds = List.mem c (codes ds)

let heat2d_path () =
  List.find Sys.file_exists
    [
      "../examples/heat2d.craft";
      "../../examples/heat2d.craft";
      "../../../examples/heat2d.craft";
      "examples/heat2d.craft";
    ]

let clean_suite =
  [
    case "every suite workload certifies clean" (fun () ->
        List.iter
          (fun (w : Ccdp_workloads.Workload.t) ->
            match Check.certify (compile w.Ccdp_workloads.Workload.program) with
            | [] -> ()
            | d :: _ ->
                Alcotest.failf "%s: %s" w.Ccdp_workloads.Workload.name
                  (Diag.to_string d))
          (Suite.all ()));
    case "the four paper workloads certify clean at several PE counts"
      (fun () ->
        List.iter
          (fun pe ->
            let cfg = Config.t3d ~n_pes:pe in
            List.iter
              (fun (w : Ccdp_workloads.Workload.t) ->
                check_int
                  (Printf.sprintf "%s @%d PEs" w.Ccdp_workloads.Workload.name
                     pe)
                  0
                  (List.length
                     (Check.certify
                        (Pipeline.compile cfg
                           w.Ccdp_workloads.Workload.program))))
              (Suite.spec_four ()))
          [ 4; 16; 64 ]);
    case "the shipped heat2d.craft certifies clean" (fun () ->
        let p = Ccdp_ir.Craft_parse.file (heat2d_path ()) in
        check_int "diagnostics" 0 (List.length (Check.certify (compile p))));
    case "the JSON report carries version, targets and severity totals"
      (fun () ->
        let t = compile (workload "mxm") in
        let s =
          Check.json
            [ { Check.name = "mxm"; diags = Check.certify t } ]
        in
        let contains sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        check_true "version" (contains "\"version\":1");
        check_true "target name" (contains "\"name\":\"mxm\"");
        check_true "summary" (contains "\"errors\":0"));
  ]

(* The verifier's second opinion must never claim fewer stale reads than
   the analysis it checks: any read the pipeline marks stale is stale in
   the independent derivation too (over-approximation). *)
let property_suite =
  [
    case "may-stale derivation covers Stale.analyze on 60 fuzz programs"
      (fun () ->
        let rng = Random.State.make [| 2024 |] in
        for _ = 1 to 60 do
          let d = Gen.generate rng in
          let cfg = Config.of_kind d.Gen.net ~n_pes:d.Gen.n_pes in
          let t =
            Pipeline.compile cfg ~prefetch_clean:d.Gen.pclean (Gen.build d)
          in
          let independent =
            Ccdp_check.Maystale.stale_ids (Check.maystale t)
          in
          List.iter
            (fun id ->
              check_true
                (Printf.sprintf "stale ref %d derived independently" id)
                (List.mem id independent))
            (Stale.stale_ids t.Pipeline.stale)
        done);
    case "lock/reduction corpus: Stale ⊆ Maystale, acquire verdicts witnessed"
      (fun () ->
        (* draw until 40 descriptions carry intra-epoch synchronization
           (critical sections or recognized reductions): every stale mark —
           including the new acquire-frontier verdicts — must be re-derived
           by the independent walk, and the corpus must actually exercise
           the mini-epoch rule at least once *)
        let rng = Random.State.make [| 4097 |] in
        let has_sync d =
          List.exists
            (function Gen.Lock _ | Gen.Red _ -> true | _ -> false)
            d.Gen.epochs
        in
        let acquires = ref 0 and seen = ref 0 in
        while !seen < 40 do
          let d = Gen.generate rng in
          if has_sync d then begin
            incr seen;
            let cfg = Config.of_kind d.Gen.net ~n_pes:d.Gen.n_pes in
            let t =
              Pipeline.compile cfg ~prefetch_clean:d.Gen.pclean (Gen.build d)
            in
            let independent =
              Ccdp_check.Maystale.stale_ids (Check.maystale t)
            in
            List.iter
              (fun id ->
                (match Stale.verdict t.Pipeline.stale id with
                | Stale.Stale { at_acquire = true; _ } -> incr acquires
                | _ -> ());
                check_true
                  (Printf.sprintf "stale ref %d derived independently" id)
                  (List.mem id independent))
              (Stale.stale_ids t.Pipeline.stale)
          end
        done;
        check_true "corpus exercises the acquire-frontier rule"
          (!acquires > 0));
    case "witnesses are sorted write ids of the same region" (fun () ->
        let t = compile (workload "mxm") in
        let ms = Check.maystale t in
        List.iter
          (fun id ->
            let ws = Ccdp_check.Maystale.witnesses_of ms id in
            check_true "non-empty" (ws <> []);
            check_true "sorted" (List.sort compare ws = ws))
          (Ccdp_check.Maystale.stale_ids ms));
  ]

let racy_doall () =
  let b = B.create ~name:"racy" () in
  B.param b "n" 64;
  B.array_ b "A" [| 64 |] ~dist:(Ccdp_ir.Dist.block_along ~rank:1 ~dim:0);
  let open B.A in
  B.finish b
    [
      B.doall b "i" (bc 1) (bc 62)
        [
          B.assign b "A" [ v "i" ]
            B.F.(Ccdp_ir.Fexpr.Ref (B.ref_ b "A" [ v "i" +! c (-1) ]) + const 1.0);
        ];
    ]

let scalar_racy_doall () =
  let b = B.create ~name:"sracy" () in
  B.param b "n" 64;
  B.array_ b "A" [| 64 |] ~dist:(Ccdp_ir.Dist.block_along ~rank:1 ~dim:0);
  let open B.A in
  B.finish b
    [
      B.doall b "i" (bc 0) (bc 63)
        [
          Ccdp_ir.Stmt.Sassign ("t", B.F.(sv "t" + const 1.0));
          B.assign b "A" [ v "i" ] (B.F.sv "t");
        ];
    ]

(* DOALL J = 1,14; DO I = 1,14 over [body]: the inner loop's variable
   differs between two iterations of J *)
let inner_shift_doall body =
  let b = B.create ~name:"shift" () in
  B.param b "n" 16;
  B.array_ b "M" [| 16; 16 |]
    ~dist:(Ccdp_ir.Dist.block_along ~rank:2 ~dim:1);
  B.array_ b "A" [| 32 |] ~dist:(Ccdp_ir.Dist.block_along ~rank:1 ~dim:0);
  let open B.A in
  B.finish b
    [ B.doall b "j" (bc 1) (bc 14) [ B.for_ b "i" (bc 1) (bc 14) (body b) ] ]

let fault_suite =
  [
    case "W001: a dropped stale mark is an uncovered obligation" (fun () ->
        let t =
          compile ~mutate_stale:(Driver.drop_stale_mark 0) (workload "mxm")
        in
        let ds = Check.certify t in
        check_true "CCDP-W001 raised" (has_code "CCDP-W001" ds);
        check_true "error severity gates" (Check.errors ds <> []));
    case "W001 points at the victim reference" (fun () ->
        let t = compile (workload "mxm") in
        let victim = List.hd (Stale.stale_ids t.Pipeline.stale) in
        let t' =
          compile ~mutate_stale:(Driver.drop_stale_mark 0) (workload "mxm")
        in
        check_true "victim named"
          (List.exists
             (fun d ->
               d.Diag.code = Diag.Uncovered_stale
               && d.Diag.ref_id = Some victim)
             (Check.certify t')));
    case "W002: removing a lead's op breaks the cover chain" (fun () ->
        let t = compile (workload "tomcatv") in
        let lead =
          Hashtbl.fold
            (fun _ cls acc ->
              match (cls, acc) with
              | Annot.Covered lead, None -> Some lead
              | _ -> acc)
            t.Pipeline.plan.Annot.classes None
        in
        match lead with
        | None -> Alcotest.fail "tomcatv plan has no covered reference"
        | Some lead ->
            Hashtbl.remove t.Pipeline.plan.Annot.ops lead;
            check_true "CCDP-W002 raised"
              (has_code "CCDP-W002" (Check.certify t)));
    case "W003: a builder-built racy DOALL is flagged" (fun () ->
        let ds = Check.certify (compile (racy_doall ())) in
        check_true "CCDP-W003 raised" (has_code "CCDP-W003" ds);
        check_true "synthetic span (builder program)"
          (List.for_all
             (fun d -> not (Ccdp_ir.Loc.is_src d.Diag.loc))
             ds));
    case "W003: an unprivatizable scalar is flagged" (fun () ->
        check_true "CCDP-W003 raised"
          (has_code "CCDP-W003" (Check.certify (compile (scalar_racy_doall ())))));
    case "W003 precision: dynamic and gauss stay clean" (fun () ->
        (* regression: per-iteration scalar definiteness (dynamic) and the
           triangular-bound Banerjee test (gauss) — both were certifier
           false positives once *)
        List.iter
          (fun name ->
            check_int name 0
              (List.length (Check.races (compile (workload name)))))
          [ "dynamic"; "gauss" ]);
    case "W004: covering a provably clean read is flagged" (fun () ->
        let t = compile (workload "mxm") in
        let clean =
          Hashtbl.fold
            (fun id cls acc ->
              match (cls, acc) with
              | Annot.Normal, None -> Some id
              | _ -> acc)
            t.Pipeline.plan.Annot.classes None
        in
        match clean with
        | None -> Alcotest.fail "mxm plan has no normal read"
        | Some id ->
            Hashtbl.replace t.Pipeline.plan.Annot.classes id Annot.Bypass;
            let ds = Check.certify t in
            check_true "CCDP-W004 raised" (has_code "CCDP-W004" ds);
            check_true "warning only, not gating" (Check.errors ds = []));
    case "W004 is suppressed under prefetch_clean" (fun () ->
        let t = compile ~prefetch_clean:true (workload "mxm") in
        let clean =
          Hashtbl.fold
            (fun id cls acc ->
              match (cls, acc) with
              | Annot.Normal, None -> Some id
              | _ -> acc)
            t.Pipeline.plan.Annot.classes None
        in
        match clean with
        | None -> () (* everything prefetched: nothing to suppress *)
        | Some id ->
            Hashtbl.replace t.Pipeline.plan.Annot.classes id Annot.Bypass;
            check_false "no CCDP-W004"
              (has_code "CCDP-W004" (Check.certify t)));
    case "W005: a covered member with its own op is redundant" (fun () ->
        let t = compile (workload "tomcatv") in
        let covered =
          Hashtbl.fold
            (fun id cls acc ->
              match (cls, acc) with
              | Annot.Covered _, None -> Some id
              | _ -> acc)
            t.Pipeline.plan.Annot.classes None
        in
        match covered with
        | None -> Alcotest.fail "tomcatv plan has no covered reference"
        | Some id ->
            Hashtbl.replace t.Pipeline.plan.Annot.ops id
              (Annot.Back { ref_id = id; cycles = 64 });
            check_true "CCDP-W005 raised"
              (has_code "CCDP-W005" (Check.certify t)));
    case "W006: a moved-back window outside the tuned range is dead"
      (fun () ->
        let t = compile (workload "tomcatv") in
        let back =
          Hashtbl.fold
            (fun id op acc ->
              match (op, acc) with
              | Annot.Back _, None -> Some id
              | _ -> acc)
            t.Pipeline.plan.Annot.ops None
        in
        match back with
        | None -> Alcotest.fail "tomcatv plan has no moved-back op"
        | Some id ->
            Hashtbl.replace t.Pipeline.plan.Annot.ops id
              (Annot.Back { ref_id = id; cycles = 10_000_000 });
            check_true "CCDP-W006 raised"
              (has_code "CCDP-W006" (Check.certify t)));
    case "W007: a zero pipelined distance is mis-sized" (fun () ->
        let t = compile (Ccdp_ir.Craft_parse.file (heat2d_path ())) in
        let sp =
          Hashtbl.fold
            (fun id op acc ->
              match (op, acc) with
              | Annot.Pipelined _, None -> Some (id, op)
              | _ -> acc)
            t.Pipeline.plan.Annot.ops None
        in
        match sp with
        | None -> Alcotest.fail "heat2d plan has no pipelined op"
        | Some (id, Annot.Pipelined p) ->
            Hashtbl.replace t.Pipeline.plan.Annot.ops id
              (Annot.Pipelined { p with distance = 0 });
            check_true "CCDP-W007 raised"
              (has_code "CCDP-W007" (Check.certify t))
        | Some _ -> assert false);
    case "W008: a vector section over a shrunken budget is mis-sized"
      (fun () ->
        let t = compile (workload "mxm") in
        let tuning =
          { t.Pipeline.tuning with Schedule.vpg_max_words = Some 1 }
        in
        let ds =
          Lint.check ~region:t.Pipeline.region ~cfg:t.Pipeline.cfg ~tuning
            ~plan:t.Pipeline.plan t.Pipeline.infos
        in
        check_true "CCDP-W008 raised" (has_code "CCDP-W008" ds));
    case "diagnostics order by span, then code, then reference" (fun () ->
        let t =
          compile ~mutate_stale:(Driver.drop_stale_mark 0) (workload "mxm")
        in
        let ds = Check.certify t in
        check_true "sorted" (List.sort Diag.compare ds = ds));
    case "W003: a subscript over an inner loop's variable is no proof"
      (fun () ->
        (* M(i,j) = M(i-1,j-1) and A(i+j) = A(i+j) + 1: neither dimension
           alone pins j, yet iterations j and j+1 share elements *)
        List.iter
          (fun body ->
            check_true "CCDP-W003 raised"
              (has_code "CCDP-W003"
                 (Check.certify (compile (inner_shift_doall body)))))
          [
            (fun b ->
              let open B.A in
              [
                B.assign b "M" [ v "i"; v "j" ]
                  B.F.(B.rd b "M" [ v "i" -! c 1; v "j" -! c 1 ] * const 0.5);
              ]);
            (fun b ->
              let open B.A in
              [
                B.assign b "A" [ v "i" +! v "j" ]
                  B.F.(B.rd b "A" [ v "i" +! v "j" ] + const 1.0);
              ]);
          ]);
  ]

let span_text =
  String.concat "\n"
    [
      "      PROGRAM SPAN";
      "      PARAMETER (N = 8)";
      "      REAL*8 A(8, 8)";
      "CDIR$ SHARED A(:, :BLOCK)";
      "CDIR$ DOSHARED (J)";
      "      DO J = 0, 7";
      "        DO I = 0, 7";
      "          A(i, j) = (A(i, j) + 1.0)";
      "        ENDDO";
      "      ENDDO";
      "      END";
    ]

let span_suite =
  [
    case "CRAFT references carry their source line" (fun () ->
        let p = Ccdp_ir.Craft_parse.program span_text in
        let refs = Ccdp_ir.Program.main_refs p in
        check_true "some refs" (refs <> []);
        List.iter
          (fun (_, (r : Ccdp_ir.Reference.t)) ->
            check_true "located" (Ccdp_ir.Loc.is_src r.Ccdp_ir.Reference.loc);
            check_int "line"
              8
              (Option.get (Ccdp_ir.Loc.line r.Ccdp_ir.Reference.loc)))
          refs);
    case "CRAFT loop headers carry their source line" (fun () ->
        let p = Ccdp_ir.Craft_parse.program span_text in
        let lines = ref [] in
        let rec walk stmts =
          List.iter
            (fun s ->
              match s with
              | Ccdp_ir.Stmt.For l ->
                  lines :=
                    Option.get (Ccdp_ir.Loc.line l.Ccdp_ir.Stmt.loc) :: !lines;
                  walk l.Ccdp_ir.Stmt.body
              | Ccdp_ir.Stmt.If (_, a, b) ->
                  walk a;
                  walk b
              | _ -> ())
            stmts
        in
        walk p.Ccdp_ir.Program.main;
        check_true "doall at line 6" (List.mem 6 !lines);
        check_true "inner loop at line 7" (List.mem 7 !lines));
    case "builder programs stay synthetic end to end" (fun () ->
        let p = workload "mxm" in
        List.iter
          (fun (_, (r : Ccdp_ir.Reference.t)) ->
            check_false "synthetic"
              (Ccdp_ir.Loc.is_src r.Ccdp_ir.Reference.loc))
          (Ccdp_ir.Program.main_refs p));
    case "diagnostics on parsed programs render their span" (fun () ->
        (* sabotage the parsed span program so a diagnostic fires, then
           check the rendered report points into the source *)
        let t =
          compile
            ~mutate_stale:(fun r ->
              let verdicts = Hashtbl.copy r.Stale.verdicts in
              Hashtbl.iter
                (fun id _ -> Hashtbl.replace verdicts id Stale.Clean)
                r.Stale.verdicts;
              { r with Stale.verdicts; n_stale = 0 })
            (Ccdp_ir.Craft_parse.program span_text)
        in
        match Check.errors (Check.certify t) with
        | [] -> () (* nothing was stale to begin with: acceptable *)
        | d :: _ ->
            check_true "span rendered" (Ccdp_ir.Loc.is_src d.Diag.loc));
  ]

let differential_suite =
  [
    case "three-way differential: no static escapes under fault injection"
      (fun () ->
        let s =
          Driver.campaign
            ~mutate_stale:(Driver.drop_stale_mark 0)
            ~progress:(fun _ -> ())
            ~seed:7 ~count:25 ()
        in
        check_int "static escapes" 0 s.Driver.s_static_escapes;
        check_true "certifier caught dangerous faults"
          (s.Driver.s_static_caught > 0));
    case "clean corpus never certifies spurious" (fun () ->
        let s =
          Driver.campaign
            ~progress:(fun _ -> ())
            ~seed:23 ~count:25 ()
        in
        check_int "failures" 0 (List.length s.Driver.s_failures);
        check_int "caught (nothing injected)" 0 s.Driver.s_static_caught;
        check_int "escapes" 0 s.Driver.s_static_escapes);
  ]

let () =
  Alcotest.run "check"
    [
      ("clean", clean_suite);
      ("maystale", property_suite);
      ("faults", fault_suite);
      ("spans", span_suite);
      ("differential", differential_suite);
    ]
