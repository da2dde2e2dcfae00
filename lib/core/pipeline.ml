open Ccdp_ir
open Ccdp_analysis

type t = {
  program : Program.t;
  epochs : Epoch.t;
  infos : Ref_info.t list;
  region : Region.t;
  stale : Stale.result;
  target : Target.t;
  plan : Annot.plan;
  decisions : Schedule.decision list;
  cfg : Ccdp_machine.Config.t;
  tuning : Schedule.tuning;
  prefetch_clean : bool;
  cluster_pes : int;
      (* effective cluster width of the alignment discharge: [cfg.cluster_pes]
         when compiling for the clustered runtime, 1 otherwise *)
}

type setup = {
  cfg : Ccdp_machine.Config.t;
  program : Program.t;
  plan : Annot.plan;
  compiled : t option;
}

let compile cfg ?(tuning = Schedule.default_tuning) ?innermost_only
    ?group_spatial ?(prefetch_clean = false) ?(cluster_coherent = false)
    ?(mutate_stale = fun s -> s) program =
  let program = Program.inline program in
  let epochs = Epoch.partition program.Program.main in
  let infos = Ref_info.collect epochs in
  let region = Region.make program ~n_pes:cfg.Ccdp_machine.Config.n_pes in
  (* the cluster-aware discharge is sound only under the clustered
     protocol, so it is opt-in per compile, and mirrors the runtime's
     degradation to a flat machine when the clustering is ragged *)
  let cluster_pes =
    if
      cluster_coherent
      && cfg.Ccdp_machine.Config.n_pes mod cfg.Ccdp_machine.Config.cluster_pes
         = 0
    then cfg.Ccdp_machine.Config.cluster_pes
    else 1
  in
  let stale = mutate_stale (Stale.analyze ~cluster_pes region infos) in
  let target =
    Target.analyze ?innermost_only ?group_spatial ~prefetch_clean region cfg
      infos stale
  in
  let plan, decisions = Schedule.analyze region cfg ~tuning infos stale target in
  {
    program;
    epochs;
    infos;
    region;
    stale;
    target;
    plan;
    decisions;
    cfg;
    tuning;
    prefetch_clean;
    cluster_pes;
  }

let for_mode ?tuning ?innermost_only ?group_spatial ?prefetch_clean
    ?mutate_stale ?(machine = Ccdp_machine.Config.t3d) ~n_pes mode program =
  let open Ccdp_runtime in
  let cfg = machine ~n_pes:(if mode = Memsys.Seq then 1 else n_pes) in
  let planned ~cluster_coherent =
    let c =
      compile cfg ?tuning ?innermost_only ?group_spatial ?prefetch_clean
        ~cluster_coherent ?mutate_stale program
    in
    { cfg; program = c.program; plan = c.plan; compiled = Some c }
  in
  match mode with
  | Memsys.Ccdp -> planned ~cluster_coherent:false
  (* the clustered runtime still consumes a CCDP plan for its inter-island
     traffic; the cluster-aware discharge drops the obligations the island
     snoop makes redundant, and is sound under no other mode *)
  | Memsys.Clustered -> planned ~cluster_coherent:true
  | Memsys.Seq | Memsys.Base | Memsys.Invalidate | Memsys.Incoherent
  | Memsys.Hscd | Memsys.Msi | Memsys.Mesi | Memsys.Directory ->
      {
        cfg;
        program = Program.inline program;
        plan = Annot.empty ();
        compiled = None;
      }

let report ppf (t : t) =
  Format.fprintf ppf "@[<v>== %s ==@,%a@,@,-- epochs --@,%a@,@,-- %a@,@,%a@,@,\
                      -- scheduling --@,%a@,-- plan --@,%a@]"
    t.program.Program.name
    (fun ppf () ->
      Format.fprintf ppf "%d references (%d reads)" (List.length t.infos)
        t.stale.Stale.n_reads)
    ()
    Epoch.pp t.epochs Stale.pp_result t.stale Target.pp t.target
    Schedule.pp_decisions t.decisions Annot.pp t.plan
