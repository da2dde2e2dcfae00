open Ccdp_ir

let stmt_mem_cost (cfg : Ccdp_machine.Config.t) s =
  let reads = List.length (Stmt.direct_reads s) in
  let writes = match Stmt.direct_write s with Some _ -> 1 | None -> 0 in
  (reads * cfg.hit) + (writes * cfg.store_local)

(* the trip count assumed for a loop whose bounds do not resolve *)
let default_trip = 8

let rec stmts_cycles cfg env stmts =
  List.fold_left
    (fun acc s ->
      acc
      +
      match s with
      | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Reduce _ ->
          (Stmt.direct_flops s * cfg.Ccdp_machine.Config.flop) + stmt_mem_cost cfg s
      | Stmt.Critical c ->
          cfg.Ccdp_machine.Config.lock_acquire
          + cfg.Ccdp_machine.Config.lock_release
          + stmts_cycles cfg env c.Stmt.cbody
      | Stmt.If (_, t, e) ->
          Stmt.direct_flops s
          + max (stmts_cycles cfg env t) (stmts_cycles cfg env e)
      | Stmt.For l ->
          let trip =
            match Iterspace.trip_count l env with
            | Some n -> n
            | None -> default_trip
          in
          let env' =
            match (Iterspace.bound_range l.lo env, Iterspace.bound_range l.hi env) with
            | Some (lo, _), Some (_, hi) when lo <= hi ->
                Iterspace.restrict env l ~by:(lo, hi, l.step)
            | _ -> env
          in
          trip
          * (stmts_cycles cfg env' l.body
            + cfg.Ccdp_machine.Config.loop_overhead)
      | Stmt.Call _ -> 0)
    0 stmts

let iter_cycles cfg env (l : Stmt.loop) =
  let env' =
    match (Iterspace.bound_range l.lo env, Iterspace.bound_range l.hi env) with
    | Some (lo, _), Some (_, hi) when lo <= hi ->
        Iterspace.restrict env l ~by:(lo, hi, l.step)
    | _ -> env
  in
  max 1
    (stmts_cycles cfg env' l.body + cfg.Ccdp_machine.Config.loop_overhead)

let words_read_per_iter ~decl_of (l : Stmt.loop) =
  Stmt.fold
    (fun acc s ->
      List.fold_left
        (fun acc (r : Reference.t) ->
          let d = decl_of r.array_name in
          if d.Array_decl.shared then acc + 1 else acc)
        acc (Stmt.direct_reads s))
    0 l.body
