open Ccdp_ir
open Ccdp_analysis
module Config = Ccdp_machine.Config

(* Prefetch lint suite: re-derive, from the machine model and the volume
   estimator, the constraints the scheduler is supposed to have honoured
   when it sized each prefetch operation — and flag every op that fails
   them. A plan straight out of Schedule.analyze trips nothing; a mutated
   or hand-edited plan does. *)

let ceil_div a b = (a + b - 1) / b

let check ~region ~(cfg : Config.t) ~(tuning : Schedule.tuning)
    ~(plan : Annot.plan) infos =
  let index = Ref_info.index infos in
  let vpg_max =
    match tuning.Schedule.vpg_max_words with
    | Some w -> w
    | None -> cfg.Config.cache_words / 2
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ctx id =
    match Hashtbl.find_opt index id with
    | Some (i : Ref_info.t) -> (i.ref_.Reference.loc, Some i.Ref_info.epoch)
    | None -> (Loc.Synthetic, None)
  in
  (* covered members per lead, from the plan's own classification *)
  let covered_of : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun id cls ->
      match cls with
      | Annot.Covered lead ->
          let prev =
            match Hashtbl.find_opt covered_of lead with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace covered_of lead (prev @ [ id ])
      | Annot.Normal | Annot.Lead | Annot.Bypass -> ())
    plan.Annot.classes;
  (* CCDP-W005: a covered member's lines already arrive via its lead; its
     own op fetches them a second time *)
  Hashtbl.iter
    (fun id cls ->
      match cls with
      | Annot.Covered lead when Hashtbl.mem plan.Annot.ops id ->
          let loc, epoch = ctx id in
          add
            (Diag.makef Diag.Redundant_prefetch ~loc ?epoch ~ref_id:id
               "reference %d is covered by lead %d but also carries its own \
                prefetch operation"
               id lead)
      | _ -> ())
    plan.Annot.classes;
  let find_loop (i : Ref_info.t) loop_id =
    List.find_opt
      (fun (l : Stmt.loop) -> l.Stmt.loop_id = loop_id)
      (Ref_info.scope_loops i)
  in
  let decl_of name = Region.decl region name in
  (* the scheduler's per-visit environment: every scope loop other than
     the placement loop pinned to its lower bound, DOALLs restricted to
     one PE's share *)
  let pinned_env (i : Ref_info.t) (l : Stmt.loop) =
    let env = Region.env_of region i in
    let env =
      List.fold_left
        (fun env (m : Stmt.loop) ->
          if m.Stmt.loop_id = l.Stmt.loop_id then env
          else
            match List.assoc_opt m.Stmt.var env with
            | Some (lo, _, _) -> Iterspace.restrict env m ~by:(lo, lo, 1)
            | None -> env)
        env (Ref_info.scope_loops i)
    in
    match l.Stmt.kind with
    | Stmt.Doall _ -> (
        match
          Iterspace.restrict_pe env l ~n_pes:(Region.n_pes region) ~pe:0
        with
        | Some e -> e
        | None -> env)
    | Stmt.Serial -> env
  in
  let check_vector lead_id loop_id group =
    let loc, epoch = ctx lead_id in
    match Hashtbl.find_opt index lead_id with
    | None ->
        add
          (Diag.makef Diag.Vpg_missized ~ref_id:lead_id ~loop_id
             "vector prefetch names unknown reference %d" lead_id)
    | Some lead -> (
        match find_loop lead loop_id with
        | None ->
            add
              (Diag.makef Diag.Vpg_missized ~loc ?epoch ~ref_id:lead_id
                 ~loop_id
                 "vector prefetch is placed at loop %d, which does not \
                  enclose its lead"
                 loop_id)
        | Some l -> (
            let env = pinned_env lead l in
            if Iterspace.trip_count l env = None then
              add
                (Diag.makef Diag.Vpg_missized ~loc ?epoch ~ref_id:lead_id
                   ~loop_id
                   "vector prefetch on a loop with unknown trip count")
            else
              let members =
                List.filter_map (Hashtbl.find_opt index) group
              in
              let sec =
                List.fold_left
                  (fun acc (m : Ref_info.t) ->
                    Section.hull acc
                      (Section.of_subscripts m.ref_.Reference.subs env))
                  (Section.of_subscripts lead.ref_.Reference.subs env)
                  members
              in
              let name = lead.ref_.Reference.array_name in
              let conflicting =
                List.exists
                  (fun (w : Ref_info.t) ->
                    w.Ref_info.write
                    && String.equal w.ref_.Reference.array_name name
                    && List.exists
                         (fun (m : Stmt.loop) -> m.Stmt.loop_id = loop_id)
                         w.Ref_info.loops
                    && Section.overlaps (Region.section_all region w) sec)
                  infos
              in
              if conflicting then
                add
                  (Diag.makef Diag.Vpg_missized ~loc ?epoch ~ref_id:lead_id
                     ~loop_id
                     "vector prefetch of %s would pull the section before \
                      the loop's own writes to it"
                     name);
              match Section.size sec with
              | None ->
                  add
                    (Diag.makef Diag.Vpg_missized ~loc ?epoch ~ref_id:lead_id
                       ~loop_id "vector prefetch section of %s is unbounded"
                       name)
              | Some words ->
                  if words = 0 then
                    add
                      (Diag.makef Diag.Vpg_missized ~loc ?epoch
                         ~ref_id:lead_id ~loop_id
                         "vector prefetch section of %s is empty" name)
                  else if words > cfg.Config.cache_words then
                    add
                      (Diag.makef Diag.Dead_prefetch ~loc ?epoch
                         ~ref_id:lead_id ~loop_id
                         "vector prefetch pulls %d words of %s into a \
                          %d-word cache: lines are evicted before use"
                         words name cfg.Config.cache_words)
                  else if words > vpg_max then
                    add
                      (Diag.makef Diag.Vpg_missized ~loc ?epoch
                         ~ref_id:lead_id ~loop_id
                         "vector prefetch pulls %d words of %s, exceeding \
                          the %d-word vector-prefetch budget"
                         words name vpg_max)))
  in
  let check_pipelined lead_id loop_id distance every =
    let loc, epoch = ctx lead_id in
    match Hashtbl.find_opt index lead_id with
    | None ->
        add
          (Diag.makef Diag.Sp_missized ~ref_id:lead_id ~loop_id
             "pipelined prefetch names unknown reference %d" lead_id)
    | Some lead -> (
        match find_loop lead loop_id with
        | None ->
            add
              (Diag.makef Diag.Sp_missized ~loc ?epoch ~ref_id:lead_id
                 ~loop_id
                 "pipelined prefetch is placed at loop %d, which does not \
                  enclose its lead"
                 loop_id)
        | Some l ->
            let decl = decl_of lead.ref_.Reference.array_name in
            let stride =
              abs
                (Locality.stride_wrt decl lead.ref_ ~var:l.Stmt.var * l.Stmt.step)
            in
            let offset (i : Ref_info.t) = Locality.word_offset decl i.ref_ in
            let span =
              List.fold_left
                (fun acc id ->
                  match Hashtbl.find_opt index id with
                  | Some m -> max acc (abs (offset m - offset lead))
                  | None -> acc)
                0
                (match Hashtbl.find_opt covered_of lead_id with
                | Some l -> l
                | None -> [])
            in
            let d_span = if stride > 0 then ceil_div span stride else 0 in
            if distance < d_span then
              add
                (Diag.makef Diag.Sp_missized ~loc ?epoch ~ref_id:lead_id
                   ~loop_id
                   "prefetch distance %d is below the group span %d: covered \
                    members outrun their lead"
                   distance d_span);
            if distance < tuning.Schedule.sp_min || distance > tuning.Schedule.sp_max
            then
              add
                (Diag.makef Diag.Sp_missized ~loc ?epoch ~ref_id:lead_id
                   ~loop_id
                   "prefetch distance %d is outside the tuned range [%d, %d]"
                   distance tuning.Schedule.sp_min tuning.Schedule.sp_max);
            let expected_every =
              if stride = 0 then max_int
              else max 1 (cfg.Config.line_words / stride)
            in
            if every <> expected_every then
              add
                (Diag.makef Diag.Sp_missized ~loc ?epoch ~ref_id:lead_id
                   ~loop_id
                   "issue cadence %s does not match the reference's %d-word \
                    stride (expected %s)"
                   (if every = max_int then "once" else string_of_int every)
                   stride
                   (if expected_every = max_int then "once"
                    else string_of_int expected_every));
            let per_iter = Volume.words_read_per_iter ~decl_of l in
            if per_iter > 0 && distance * per_iter > cfg.Config.cache_words
            then
              add
                (Diag.makef Diag.Dead_prefetch ~loc ?epoch ~ref_id:lead_id
                   ~loop_id
                   "%d iterations at %d shared words each pass through a \
                    %d-word cache before the prefetched line is used"
                   distance per_iter cfg.Config.cache_words))
  in
  let check_back ref_id cycles =
    let loc, epoch = ctx ref_id in
    if cycles < tuning.Schedule.mbp_min_cycles then
      add
        (Diag.makef Diag.Dead_prefetch ~loc ?epoch ~ref_id
           "moved-back prefetch crosses only %d cycles (minimum %d): it \
            cannot hide any latency"
           cycles tuning.Schedule.mbp_min_cycles)
    else if cycles > tuning.Schedule.mbp_max_cycles then
      add
        (Diag.makef Diag.Dead_prefetch ~loc ?epoch ~ref_id
           "moved-back prefetch crosses %d cycles (maximum %d): the line is \
            evicted again before use"
           cycles tuning.Schedule.mbp_max_cycles)
  in
  Hashtbl.iter
    (fun lead_id op ->
      match op with
      | Annot.Vector { loop_id; group; _ } -> check_vector lead_id loop_id group
      | Annot.Pipelined { loop_id; distance; every; _ } ->
          check_pipelined lead_id loop_id distance every
      | Annot.Back { cycles; _ } -> check_back lead_id cycles)
    plan.Annot.ops;
  (* prefetch-queue pressure is a per-loop budget: the scheduler clamps
     each new distance to the remaining queue, so the sum of in-flight
     lines never exceeds it *)
  Hashtbl.iter
    (fun loop_id ops ->
      let in_flight =
        List.fold_left
          (fun acc op ->
            match op with
            | Annot.Pipelined { distance; _ } ->
                acc + (distance * cfg.Config.line_words)
            | Annot.Vector _ | Annot.Back _ -> acc)
          0 ops
      in
      if in_flight > cfg.Config.prefetch_queue_words then
        add
          (Diag.makef Diag.Sp_missized ~loop_id
             "pipelined prefetches of loop %d keep %d words in flight, \
              overflowing the %d-word prefetch queue"
             loop_id in_flight cfg.Config.prefetch_queue_words))
    plan.Annot.pipelined_of_loop;
  List.rev !diags
