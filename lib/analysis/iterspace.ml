open Ccdp_ir

type env = (string * (int * int * int)) list

let bound_range b env =
  match b with
  | Bound.Unknown | Bound.Opaque _ -> None
  | Bound.Known e -> (
      match Section.range_of_affine e env with
      | Some d -> Some (d.Section.lo, d.Section.hi)
      | None -> None)

(* interval arithmetic over the variables' (lo, hi) ranges, steps
   ignored; unlike [Section.range_of_affine] an empty range is no reason
   to give up *)
let affine_range env e =
  List.fold_left
    (fun acc v ->
      match (acc, List.assoc_opt v env) with
      | None, _ | _, None -> None
      | Some (mn, mx), Some (lo, hi, _) ->
          let c = Affine.coeff e v in
          if c >= 0 then Some (mn + (c * lo), mx + (c * hi))
          else Some (mn + (c * hi), mx + (c * lo)))
    (Some (Affine.const_part e, Affine.const_part e))
    (Affine.vars e)

let bound_const b env =
  match bound_range b env with
  | Some (lo, hi) when lo = hi -> Some lo
  | Some _ | None -> None

let of_loops ~params loops =
  let base = List.map (fun (v, x) -> (v, (x, x, 1))) params in
  List.fold_left
    (fun env (l : Stmt.loop) ->
      match (bound_range l.lo env, bound_range l.hi env) with
      | Some (lo_min, _), Some (_, hi_max) when lo_min <= hi_max ->
          env @ [ (l.var, (lo_min, hi_max, l.step)) ]
      | _ -> env)
    base loops

let trip_count (l : Stmt.loop) env =
  match (bound_range l.lo env, bound_range l.hi env) with
  | Some (lo_min, _), Some (_, hi_max) ->
      Some (Ccdp_craft.Loop_sched.trip_count ~lo:lo_min ~hi:hi_max ~step:l.step)
  | _ -> None

let restrict env (l : Stmt.loop) ~by =
  (l.var, by) :: List.filter (fun (v, _) -> v <> l.var) env

type restriction = Idle | Exact of env | Widened of env

let restrict_pe_info env (l : Stmt.loop) ~n_pes ~pe =
  match l.kind with
  | Stmt.Serial -> Exact env
  | Stmt.Doall sched -> (
      match sched with
      | Stmt.Dynamic _ -> Widened env
      | Stmt.Static_block | Stmt.Static_aligned _ | Stmt.Static_cyclic -> (
          match (bound_const l.lo env, bound_const l.hi env) with
          | Some lo, Some hi -> (
              match
                Ccdp_craft.Loop_sched.triplet_of_pe sched ~n_pes ~pe ~lo ~hi
                  ~step:l.step
              with
              | Some t -> Exact (restrict env l ~by:t)
              | None -> Idle)
          | _ -> Widened env))

let restrict_pe env l ~n_pes ~pe =
  match restrict_pe_info env l ~n_pes ~pe with
  | Idle -> None
  | Exact e | Widened e -> Some e

let pin_outer env ~inner loops =
  List.fold_left
    (fun env (l : Stmt.loop) ->
      if l.Stmt.loop_id = inner.Stmt.loop_id then env
      else
        match List.assoc_opt l.var env with
        | Some (lo, _, _) -> restrict env l ~by:(lo, lo, 1)
        | None -> env)
    env loops
