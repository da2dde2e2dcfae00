open Ccdp_ir

type technique = Vpg | Sp | Mbp | Demoted

type tuning = {
  sp_min : int;
  sp_max : int;
  mbp_min_cycles : int;
  mbp_max_cycles : int;
  vpg_max_words : int option;
  vpg_levels : int;
      (** loop levels a vector prefetch may be pulled out of; the paper
          fixes 1 (Section 4.3.2's modification of Gornish's algorithm) *)
  allow_vpg : bool;
  allow_sp : bool;
  allow_mbp : bool;
}

let default_tuning =
  {
    sp_min = 1;
    sp_max = 32;
    mbp_min_cycles = 32;
    mbp_max_cycles = 4096;
    vpg_max_words = None;
    vpg_levels = 1;
    allow_vpg = true;
    allow_sp = true;
    allow_mbp = true;
  }

type decision = {
  lead_id : int;
  epoch : int;
  loop_id : int option;
  technique : technique;
}

let ceil_div a b = (a + b - 1) / b

let analyze region cfg ?(tuning = default_tuning) infos stale target =
  let open Ccdp_machine in
  let vpg_max =
    match tuning.vpg_max_words with
    | Some w -> w
    | None -> cfg.Config.cache_words / 2
  in
  let latency = cfg.Config.remote in
  let classes = Hashtbl.copy target.Target.classes in
  let ops = Hashtbl.create 32 in
  let vectors_of_loop = Hashtbl.create 8 in
  let pipelined_of_loop = Hashtbl.create 8 in
  let decisions = ref [] in
  let push_loop_op tbl loop_id op =
    let prev = match Hashtbl.find_opt tbl loop_id with Some l -> l | None -> [] in
    Hashtbl.replace tbl loop_id (prev @ [ op ])
  in
  let writes_in_loop loop_id name =
    List.filter
      (fun (i : Ref_info.t) ->
        i.write
        && String.equal i.ref_.Reference.array_name name
        && List.exists
             (fun (l : Stmt.loop) -> l.Stmt.loop_id = loop_id)
             i.Ref_info.loops)
      infos
  in
  let group_section_pinned ?also (g : Locality.group) (l : Stmt.loop) env =
    (* section of the whole group for one visit of the loop (plus, for
       two-level pulls, the [also] loop), on the PE with the largest
       share *)
    let keep =
      match also with
      | None -> fun (m : Stmt.loop) -> m.Stmt.loop_id = l.Stmt.loop_id
      | Some (a : Stmt.loop) ->
          fun (m : Stmt.loop) ->
            m.Stmt.loop_id = l.Stmt.loop_id || m.Stmt.loop_id = a.Stmt.loop_id
    in
    let env =
      List.fold_left
        (fun env (m : Stmt.loop) ->
          if keep m then env
          else
            match List.assoc_opt m.Stmt.var env with
            | Some (lo, _, _) -> Iterspace.restrict env m ~by:(lo, lo, 1)
            | None -> env)
        env
        (Ref_info.scope_loops g.lead)
    in
    let env =
      match l.kind with
      | Stmt.Doall _ -> (
          match Iterspace.restrict_pe env l ~n_pes:(Region.n_pes region) ~pe:0 with
          | Some e -> e
          | None -> env)
      | Stmt.Serial -> env
    in
    List.fold_left
      (fun acc (m : Ref_info.t) ->
        Section.hull acc (Section.of_subscripts m.ref_.Reference.subs env))
      (Section.of_subscripts g.lead.ref_.Reference.subs env)
      g.covered
  in
  (* --- technique attempts ------------------------------------------- *)
  let vpg_fits (g : Locality.group) sec placement_loop_id =
    let name = g.lead.ref_.Reference.array_name in
    let conflicting_write =
      List.exists
        (fun (w : Ref_info.t) ->
          Section.overlaps (Region.section_all region w) sec)
        (writes_in_loop placement_loop_id name)
    in
    if conflicting_write then None
    else
      match Section.size sec with
      | None -> None
      | Some words -> if words = 0 || words > vpg_max then None else Some words
  in
  let group_ids (g : Locality.group) =
    List.map (fun (m : Ref_info.t) -> m.ref_.Reference.id) g.covered
  in
  let try_vpg (g : Locality.group) (l : Stmt.loop) env =
    if not tuning.allow_vpg then None
    else if Iterspace.trip_count l env = None then None
    else
      (* two-level pull (ablation): hoist past the parent loop when the
         combined section still fits *)
      let two_level =
        if tuning.vpg_levels < 2 then None
        else
          (* the parent must live inside the same epoch: barriers drain all
             staged prefetch data, so pulling past a structure loop would
             stage into the void *)
          match List.rev g.lead.Ref_info.loops with
          | _ :: (parent : Stmt.loop) :: _
            when Iterspace.trip_count parent env <> None
                 && (match parent.Stmt.kind with
                    | Stmt.Serial | Stmt.Doall (Stmt.Static_block | Stmt.Static_aligned _ | Stmt.Static_cyclic) -> true
                    | Stmt.Doall (Stmt.Dynamic _) -> false) -> (
              let sec = group_section_pinned ~also:parent g parent env in
              match vpg_fits g sec parent.Stmt.loop_id with
              | Some _ ->
                  Some
                    (Annot.Vector
                       {
                         ref_id = g.lead.ref_.Reference.id;
                         loop_id = parent.Stmt.loop_id;
                         group = group_ids g;
                         inner = Some l.Stmt.loop_id;
                       })
              | None -> None)
          | _ -> None
      in
      match two_level with
      | Some _ as op -> op
      | None -> (
          let sec = group_section_pinned g l env in
          match vpg_fits g sec l.Stmt.loop_id with
          | Some _ ->
              Some
                (Annot.Vector
                   {
                     ref_id = g.lead.ref_.Reference.id;
                     loop_id = l.Stmt.loop_id;
                     group = group_ids g;
                     inner = None;
                   })
          | None -> None)
  in
  let sp_budget : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let try_sp (g : Locality.group) (l : Stmt.loop) env =
    if not tuning.allow_sp then None
    else
      let it = Volume.iter_cycles cfg env l in
      let d0 = max 1 (ceil_div latency it) in
      let d_span =
        if g.stride_words > 0 then ceil_div g.span_words g.stride_words else 0
      in
      let d = max d0 d_span in
      if d < tuning.sp_min then None
      else
        let used =
          match Hashtbl.find_opt sp_budget l.Stmt.loop_id with
          | Some u -> u
          | None -> 0
        in
        (* clamp the distance so the in-flight lines fit the prefetch queue
           (a too-short distance is a late-but-useful prefetch; exceeding
           the queue means hard drops) — but never below the group span,
           whose covered members rely on the lead staying ahead *)
        let d_fit = (cfg.Config.prefetch_queue_words - used) / cfg.Config.line_words in
        let d = min d (min tuning.sp_max d_fit) in
        if d < tuning.sp_min || d < d_span then None
        else begin
          let need = d * cfg.Config.line_words in
          Hashtbl.replace sp_budget l.Stmt.loop_id (used + need);
          (* sub-line strides revisit the same line: strip-mine the issue
             to once per line (self-spatial elimination); loop-invariant
             references only ever need the one prologue issue *)
          let every =
            if g.stride_words = 0 then max_int
            else max 1 (cfg.Config.line_words / g.stride_words)
          in
          Some
            (Annot.Pipelined
               {
                 ref_id = g.lead.ref_.Reference.id;
                 loop_id = l.Stmt.loop_id;
                 distance = d;
                 every;
               })
        end
  in
  let mbp_cycles (i : Ref_info.t) env =
    let back = Volume.stmts_cycles cfg env i.stmts_before in
    min tuning.mbp_max_cycles back
  in
  let demote id = Hashtbl.replace classes id Annot.Bypass in
  let schedule_mbp_single (i : Ref_info.t) env =
    if not tuning.allow_mbp then None
    else
      let back = mbp_cycles i env in
      if back < tuning.mbp_min_cycles then None
      else Some (Annot.Back { ref_id = i.ref_.Reference.id; cycles = back })
  in
  (* --- per-LSC driver (paper Fig. 2) --------------------------------- *)
  let record g epoch loop_id technique =
    decisions :=
      { lead_id = g.Locality.lead.ref_.Reference.id; epoch; loop_id; technique }
      :: !decisions
  in
  let install_op (g : Locality.group) op =
    let lead_id = g.lead.ref_.Reference.id in
    Hashtbl.replace ops lead_id op;
    match op with
    | Annot.Vector { loop_id; _ } -> push_loop_op vectors_of_loop loop_id op
    | Annot.Pipelined { loop_id; _ } -> push_loop_op pipelined_of_loop loop_id op
    | Annot.Back _ -> ()
  in
  let mbp_lead_and_promote_covered ~in_loop (g : Locality.group) epoch loop_id env =
    (* In a loop, covered members cannot rely on the leader's moved-back
       prefetch timing: give each its own op (or demote). Straight-line
       covers are safe: the leader executes first. *)
    let handle (i : Ref_info.t) =
      match schedule_mbp_single i env with
      | Some op ->
          Hashtbl.replace classes i.ref_.Reference.id Annot.Lead;
          Hashtbl.replace ops i.ref_.Reference.id op;
          true
      | None ->
          demote i.ref_.Reference.id;
          false
    in
    let lead_ok = handle g.lead in
    record g epoch loop_id (if lead_ok then Mbp else Demoted);
    if in_loop then
      List.iter (fun (m : Ref_info.t) -> ignore (handle m)) g.covered
    else if not lead_ok then
      (* leader demoted: covers lose their line source *)
      List.iter (fun (m : Ref_info.t) -> demote m.ref_.Reference.id) g.covered
  in
  List.iter
    (fun (lsc : Target.lsc) ->
      match lsc.inner with
      | None ->
          (* case 4: serial code section -> MBP *)
          List.iter
            (fun (g : Locality.group) ->
              let env = Region.env_of region g.lead in
              mbp_lead_and_promote_covered ~in_loop:false g lsc.epoch None env)
            lsc.groups
      | Some l ->
          let loop_id = Some l.Stmt.loop_id in
          List.iter
            (fun (g : Locality.group) ->
              let env = Region.env_of region g.lead in
              let known = Iterspace.trip_count l env <> None in
              let has_if = g.lead.Ref_info.loop_has_if in
              let attempts =
                if has_if then []
                else
                  match l.kind with
                  | Stmt.Serial ->
                      if known then [ (`V, Vpg); (`S, Sp) ] else [ (`S, Sp) ]
                  | Stmt.Doall
                      ( Stmt.Static_block | Stmt.Static_aligned _
                      | Stmt.Static_cyclic ) ->
                      if known then [ (`V, Vpg) ] else []
                  | Stmt.Doall (Stmt.Dynamic _) -> []
              in
              let rec try_all = function
                | [] ->
                    mbp_lead_and_promote_covered ~in_loop:true g lsc.epoch loop_id
                      env
                | (`V, t) :: rest -> (
                    match try_vpg g l env with
                    | Some op ->
                        install_op g op;
                        record g lsc.epoch loop_id t
                    | None -> try_all rest)
                | (`S, t) :: rest -> (
                    match try_sp g l env with
                    | Some op ->
                        install_op g op;
                        record g lsc.epoch loop_id t
                    | None -> try_all rest)
              in
              try_all attempts)
            lsc.groups)
    target.Target.lscs;
  let plan =
    { Annot.classes; ops; vectors_of_loop; pipelined_of_loop; stale }
  in
  (plan, List.rev !decisions)

let pp_decisions ppf ds =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun d ->
      Format.fprintf ppf "lead %d (epoch %d%s): %s@," d.lead_id d.epoch
        (match d.loop_id with
        | Some l -> Printf.sprintf ", loop %d" l
        | None -> ", serial code")
        (match d.technique with
        | Vpg -> "vector prefetch"
        | Sp -> "software pipelining"
        | Mbp -> "moved back"
        | Demoted -> "demoted to bypass"))
    ds;
  Format.fprintf ppf "@]"
