(* Golden pin of the static certifier's report surface: clean targets stay
   clean, each fault class renders its stable code, spans point into CRAFT
   sources, and the JSON shape stays fixed. Regenerate with `dune runtest`,
   accept intentional changes with `dune promote`. *)

module Config = Ccdp_machine.Config
module Pipeline = Ccdp_core.Pipeline
module Check = Ccdp_check.Check
module Lint = Ccdp_check.Lint
module Annot = Ccdp_analysis.Annot
module Stale = Ccdp_analysis.Stale
module Schedule = Ccdp_analysis.Schedule
module Suite = Ccdp_workloads.Suite

let cfg = Config.t3d ~n_pes:16
let compile ?mutate_stale p = Pipeline.compile cfg ?mutate_stale p

let report name t = { Check.name; diags = Check.certify t }
let print r = Format.printf "%a@." Check.pp_report r

(* drop the first stale mark (by id), as the fuzzer's fault injection does *)
let drop_first (r : Stale.result) =
  match Stale.stale_ids r with
  | [] -> r
  | id :: _ ->
      let verdicts = Hashtbl.copy r.Stale.verdicts in
      Hashtbl.replace verdicts id Stale.Clean;
      { r with Stale.verdicts; n_stale = r.Stale.n_stale - 1 }

let first_matching f tbl =
  Hashtbl.fold
    (fun k v acc -> match acc with Some _ -> acc | None -> f k v)
    tbl None

let () =
  let heat2d = Sys.argv.(1) and racy = Sys.argv.(2) in
  let locked_hist = Sys.argv.(3) and minmax_red = Sys.argv.(4) in
  let onesided = Sys.argv.(5) and badred = Sys.argv.(6) in
  let liveout = Sys.argv.(7) in
  Format.printf "== clean targets ==@.";
  List.iter
    (fun (w : Ccdp_workloads.Workload.t) ->
      print
        (report w.Ccdp_workloads.Workload.name
           (compile w.Ccdp_workloads.Workload.program)))
    (Suite.all ());
  print (report "heat2d" (compile (Ccdp_ir.Craft_parse.file heat2d)));
  (* the synchronization examples certify clean: lock domination discharges
     the cross-PE accumulator conflict, the in-critical reads are bypassed,
     and the marked reductions are recognized as associative folds *)
  print
    (report "locked_hist" (compile (Ccdp_ir.Craft_parse.file locked_hist)));
  print (report "minmax_red" (compile (Ccdp_ir.Craft_parse.file minmax_red)));

  Format.printf "== fault classes ==@.";
  print (report "racy.craft" (compile (Ccdp_ir.Craft_parse.file racy)));
  print (report "onesided.craft" (compile (Ccdp_ir.Craft_parse.file onesided)));
  print (report "badred.craft" (compile (Ccdp_ir.Craft_parse.file badred)));
  print (report "liveout.craft" (compile (Ccdp_ir.Craft_parse.file liveout)));
  let mxm = (Suite.find "mxm").program in
  let tomcatv = (Suite.find "tomcatv").program in
  print (report "mxm+dropped-stale-mark" (compile ~mutate_stale:drop_first mxm));
  (let t = compile tomcatv in
   let lead =
     first_matching
       (fun _ cls -> match cls with Annot.Covered l -> Some l | _ -> None)
       t.Pipeline.plan.Annot.classes
   in
   Option.iter (Hashtbl.remove t.Pipeline.plan.Annot.ops) lead;
   print (report "tomcatv+lead-op-removed" t));
  (let t = compile mxm in
   let clean =
     first_matching
       (fun id cls -> match cls with Annot.Normal -> Some id | _ -> None)
       t.Pipeline.plan.Annot.classes
   in
   Option.iter
     (fun id -> Hashtbl.replace t.Pipeline.plan.Annot.classes id Annot.Bypass)
     clean;
   print (report "mxm+clean-read-bypassed" t));
  (let t = compile tomcatv in
   let covered =
     first_matching
       (fun id cls -> match cls with Annot.Covered _ -> Some id | _ -> None)
       t.Pipeline.plan.Annot.classes
   in
   Option.iter
     (fun id ->
       Hashtbl.replace t.Pipeline.plan.Annot.ops id
         (Annot.Back { ref_id = id; cycles = 64 }))
     covered;
   print (report "tomcatv+covered-own-op" t));
  (let t = compile tomcatv in
   let back =
     first_matching
       (fun id op -> match op with Annot.Back _ -> Some id | _ -> None)
       t.Pipeline.plan.Annot.ops
   in
   Option.iter
     (fun id ->
       Hashtbl.replace t.Pipeline.plan.Annot.ops id
         (Annot.Back { ref_id = id; cycles = 10_000_000 }))
     back;
   print (report "tomcatv+moved-back-overshot" t));
  (let t = compile (Ccdp_ir.Craft_parse.file heat2d) in
   let sp =
     first_matching
       (fun id op -> match op with Annot.Pipelined _ -> Some id | _ -> None)
       t.Pipeline.plan.Annot.ops
   in
   Option.iter
     (fun id ->
       match Hashtbl.find t.Pipeline.plan.Annot.ops id with
       | Annot.Pipelined p ->
           Hashtbl.replace t.Pipeline.plan.Annot.ops id
             (Annot.Pipelined { p with distance = 0 })
       | _ -> ())
     sp;
   print (report "heat2d+zero-sp-distance" t));
  (let t = compile mxm in
   let tuning = { t.Pipeline.tuning with Schedule.vpg_max_words = Some 1 } in
   print
     {
       Check.name = "mxm+one-word-vpg-budget";
       diags =
         Lint.check ~region:t.Pipeline.region ~cfg:t.Pipeline.cfg ~tuning
           ~plan:t.Pipeline.plan t.Pipeline.infos;
     });

  Format.printf "== json ==@.";
  let t = compile (Ccdp_ir.Craft_parse.file racy) in
  print_endline (Check.json [ report "racy" t ])
