open Ccdp_ir

type verdict =
  | Parallel
  | Carried of { array_name : string; distance : int option }
  | Scalar_flow of string
  | Live_out of string
  | Has_doall
  | Has_calls

(* ------------------------------------------------------------------ *)
(* Scalar privatization                                                *)
(* ------------------------------------------------------------------ *)

module S = Set.Make (String)

exception Flows of string

let rec expr_reads watched defined = function
  | Fexpr.Svar v -> if watched v && not (S.mem v defined) then raise (Flows v)
  | Fexpr.Const _ | Fexpr.Ivar _ | Fexpr.Ref _ -> ()
  | Fexpr.Unop (_, a) -> expr_reads watched defined a
  | Fexpr.Binop (_, a, b) ->
      expr_reads watched defined a;
      expr_reads watched defined b

(* Run [stmts] in order from the scalars [defined] so far and return those
   definitely written after them; a read of a [watched] scalar not in
   [defined] raises [Flows]. A write is definite in straight-line code, in
   a critical section (it runs in sequence within one task) and when both
   branches of an if make it. A nested serial loop runs within one task,
   so its body sees its own earlier writes, but nothing escapes it (it may
   run zero times) and a value carried only by its back-edge is undefined
   on its first trip. A recognized reduction neither reads nor defines its
   variable here: the per-PE partial is seeded by the first contribution
   and the merged value only exists after the barrier. *)
let rec flow watched defined stmts =
  List.fold_left
    (fun defined s ->
      match s with
      | Stmt.Assign (_, e) ->
          expr_reads watched defined e;
          defined
      | Stmt.Sassign (v, e) ->
          expr_reads watched defined e;
          S.add v defined
      | Stmt.If (c, a, b) ->
          (match c with
          | Stmt.Fcond (_, x, y) ->
              expr_reads watched defined x;
              expr_reads watched defined y
          | Stmt.Icond _ -> ());
          let da = flow watched defined a in
          let db = flow watched defined b in
          S.union defined (S.inter da db)
      | Stmt.For l ->
          ignore (flow watched defined l.Stmt.body);
          defined
      | Stmt.Critical c -> flow watched defined c.Stmt.cbody
      | Stmt.Reduce r ->
          expr_reads watched defined r.Stmt.rexpr;
          defined
      | Stmt.Call _ -> defined)
    defined stmts

(* The first [watched] scalar read before a definite write when the
   statement lists [blocks] run in order from nothing defined. *)
let first_flow watched blocks =
  match List.fold_left (flow watched) S.empty blocks with
  | _ -> None
  | exception Flows v -> Some v

let scalar_flow body = first_flow (fun _ -> true) [ body ]

(* The first scalar [l] assigns (reduction variables aside) that a read in
   [after], the blocks that run after [l] in order, sees before a definite
   write. *)
let live_out after (l : Stmt.loop) =
  let assigned, reduced =
    Stmt.fold
      (fun ((a, r) as acc) s ->
        match s with
        | Stmt.Sassign (v, _) -> (S.add v a, r)
        | Stmt.Reduce x -> (a, S.add x.Stmt.rvar r)
        | _ -> acc)
      (S.empty, S.empty) l.Stmt.body
  in
  let watched = S.diff assigned reduced in
  if S.is_empty watched then None
  else first_flow (fun v -> S.mem v watched) after

let live_outs stmts =
  let found = ref [] in
  (* [after]: the blocks that run after the current one — the rest of each
     enclosing block and, after an enclosing serial loop's body, the loop
     once more (its next trip, which by [flow]'s rules may not come) *)
  let rec block after = function
    | [] -> ()
    | s :: rest ->
        let after' = rest :: after in
        (match s with
        | Stmt.For l -> (
            Option.iter
              (fun v -> found := (l.Stmt.loop_id, v) :: !found)
              (live_out after' l);
            match l.Stmt.kind with
            | Stmt.Serial -> block ([ s ] :: after') l.Stmt.body
            | Stmt.Doall _ -> ())
        | Stmt.If (_, a, b) ->
            block after' a;
            block after' b
        | Stmt.Critical c -> block after' c.Stmt.cbody
        | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Reduce _ | Stmt.Call _ -> ());
        block after rest
  in
  block [] stmts;
  List.rev !found

(* ------------------------------------------------------------------ *)
(* Dependence testing                                                  *)
(* ------------------------------------------------------------------ *)

type access = {
  write : bool;
  ref_ : Reference.t;
  loops : Stmt.loop list;
  lock : string option;
}

let accesses (l : Stmt.loop) =
  let acc = ref [] in
  let add write loops lock r = acc := { write; ref_ = r; loops; lock } :: !acc in
  let rec collect lock loops stmts =
    List.iter
      (fun s ->
        Option.iter (add true loops lock) (Stmt.direct_write s);
        List.iter (add false loops lock) (Stmt.direct_reads s);
        match s with
        | Stmt.For m -> collect lock (loops @ [ m ]) m.Stmt.body
        | Stmt.If (c, a, b) ->
            (match c with
            | Stmt.Fcond (_, x, y) ->
                List.iter (add false loops lock) (Fexpr.reads x @ Fexpr.reads y)
            | Stmt.Icond _ -> ());
            collect lock loops a;
            collect lock loops b
        | Stmt.Critical c -> collect (Some c.Stmt.lock) loops c.Stmt.cbody
        | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Reduce _ | Stmt.Call _ -> ())
      stmts
  in
  collect None [ l ] l.Stmt.body;
  List.rev !acc

(* Narrow [e] to its extreme values over the instance loops (innermost
   first): each loop variable with a non-zero coefficient is replaced by
   the bound expression that minimizes (resp. maximizes) its term. The
   result is affine in the enclosing shared variables only. None when a
   needed bound is not statically known. *)
let extremes (instance_loops : Stmt.loop list) e =
  let rec go loops ((emin, emax) as acc) =
    match loops with
    | [] -> Some acc
    | (l : Stmt.loop) :: rest -> (
        let cmin = Affine.coeff emin l.Stmt.var
        and cmax = Affine.coeff emax l.Stmt.var in
        if cmin = 0 && cmax = 0 then go rest acc
        else
          match (l.Stmt.lo, l.Stmt.hi) with
          | Bound.Known lo, Bound.Known hi ->
              let pick c = if c >= 0 then (lo, hi) else (hi, lo) in
              let min_by, _ = pick cmin and _, max_by = pick cmax in
              go rest
                ( Affine.subst_env emin [ (l.Stmt.var, min_by) ],
                  Affine.subst_env emax [ (l.Stmt.var, max_by) ] )
          | _ -> None)
  in
  go (List.rev instance_loops) (e, e)

type dim_verdict = Disjoint | Same_iter | Neutral | Carried_dist of int | Opaque

(* One subscript dimension of a pair, for iterations of [l]. The
   ZIV/strong-SIV test assumes every variable but [l]'s is equal in the
   two instances, which holds for the enclosing shared variables only: a
   loop nested in [l] iterates independently in each instance, so a
   dimension that uses one goes to the range test, unless both sides are
   one expression free of [l]'s variable, which pins nothing (Neutral). *)
let dim_test (l : Stmt.loop) ~trip ~shared_env ~loops_a ~loops_b
    (ea : Affine.t) (eb : Affine.t) =
  let c = Affine.coeff ea l.Stmt.var
  and delta = Affine.const_part eb - Affine.const_part ea in
  let scoped (m : Stmt.loop) = Affine.coeff ea m.Stmt.var <> 0 in
  let uniform = Affine.uniformly_generated ea eb in
  if uniform && c = 0 && delta = 0 then Neutral
  else if
    uniform
    && not
         (List.exists scoped (List.tl loops_a)
         || List.exists scoped (List.tl loops_b))
  then
    if c = 0 || delta mod c <> 0 then Disjoint
    else if delta = 0 then Same_iter
    else
      (* the instances' values of [l.var] differ by a multiple of the step,
         less than trip * step *)
      let k = delta / c and step = l.Stmt.step in
      if k mod step <> 0 then Disjoint
      else
        match trip with
        | Some t when abs k >= t * step -> Disjoint
        | _ -> Carried_dist k
  else
    (* the two instances iterate independently: a dependence needs
       ea(inst1) = eb(inst2), impossible when the difference range
       excludes zero *)
    match (extremes loops_a ea, extremes loops_b eb) with
    | Some (amin, amax), Some (bmin, bmax) -> (
        match
          ( Iterspace.affine_range shared_env (Affine.sub amin bmax),
            Iterspace.affine_range shared_env (Affine.sub amax bmin) )
        with
        | Some (dmin, _), Some (_, dmax) when dmin > 0 || dmax < 0 -> Disjoint
        | _ -> Opaque)
    | _ -> Opaque

(* Does the pair carry a dependence across iterations of [l]? None when it
   cannot, else the distance when every dimension pins it. *)
let pair_carries l ~trip ~shared_env a b =
  let sa = a.ref_.Reference.subs and sb = b.ref_.Reference.subs in
  let n = Array.length sa in
  if n <> Array.length sb then Some None
  else begin
    let verdicts =
      Array.init n (fun d ->
          dim_test l ~trip ~shared_env ~loops_a:a.loops ~loops_b:b.loops
            sa.(d) sb.(d))
    in
    if Array.exists (function Disjoint | Same_iter -> true | _ -> false) verdicts
    then None
    else if Array.exists (function Opaque -> true | _ -> false) verdicts then
      Some None
    else
      (* dims are Neutral or Carried_dist: any carried distance (or a pure
         Neutral aliasing, same element every iteration) is a dependence *)
      Some
        (Some
           (Array.fold_left
              (fun acc v -> match v with Carried_dist k -> k | _ -> acc)
              0 verdicts))
  end

let conflicts ~params ~outer (l : Stmt.loop) =
  let shared_env = Iterspace.of_loops ~params outer in
  let trip =
    Iterspace.trip_count l (Iterspace.of_loops ~params (outer @ [ l ]))
  in
  let accs = accesses l in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if
            (a.write || b.write)
            && String.equal a.ref_.Reference.array_name
                 b.ref_.Reference.array_name
          then
            Option.map
              (fun d -> (a, b, d))
              (pair_carries l ~trip ~shared_env a b)
          else None)
        accs)
    accs

let judge ~params ~outer ~live_out (l : Stmt.loop) =
  if Stmt.exists (function Stmt.Call _ -> true | _ -> false) l.Stmt.body then
    Has_calls
  else if
    Stmt.exists
      (function Stmt.For { kind = Stmt.Doall _; _ } -> true | _ -> false)
      l.Stmt.body
  then Has_doall
  else
    match (scalar_flow l.Stmt.body, live_out) with
    | Some v, _ -> Scalar_flow v
    | None, Some v -> Live_out v
    | None, None -> (
        (* a same-lock pair is a conflict here: promotion adds no locks *)
        match conflicts ~params ~outer l with
        | (a, _, distance) :: _ ->
            Carried { array_name = a.ref_.Reference.array_name; distance }
        | [] -> Parallel)

(* ------------------------------------------------------------------ *)
(* Transformation                                                      *)
(* ------------------------------------------------------------------ *)

type report = {
  promoted : (int * string) list;
  rejected : (int * string * verdict) list;
}

let sched (l : Stmt.loop) =
  match (l.Stmt.lo, l.Stmt.hi) with
  | Bound.Known lo, Bound.Known hi
    when Affine.is_const lo && Affine.is_const hi ->
      Stmt.Static_aligned (Affine.const_part hi + 1)
  | _ -> Stmt.Static_block

let transform (p : Program.t) =
  if p.Program.procs <> [] then
    invalid_arg "Parallelize.transform: inline procedures first";
  let promoted = ref [] and rejected = ref [] in
  let live = live_outs p.Program.main in
  (* loops inside a DOALL stay serial: the epoch model runs one level of
     parallelism *)
  let rec walk outer stmts =
    List.map
      (fun s ->
        match s with
        | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Call _ | Stmt.Reduce _
        | Stmt.For { kind = Stmt.Doall _; _ } ->
            s
        | Stmt.Critical c -> Stmt.Critical { c with cbody = walk outer c.Stmt.cbody }
        | Stmt.If (c, a, b) -> Stmt.If (c, walk outer a, walk outer b)
        | Stmt.For l -> (
            let live_out = List.assoc_opt l.Stmt.loop_id live in
            match judge ~params:p.Program.params ~outer ~live_out l with
            | Parallel ->
                promoted := (l.Stmt.loop_id, l.Stmt.var) :: !promoted;
                Stmt.For { l with kind = Stmt.Doall (sched l) }
            | v ->
                rejected := (l.Stmt.loop_id, l.Stmt.var, v) :: !rejected;
                Stmt.For { l with body = walk (outer @ [ l ]) l.Stmt.body }))
      stmts
  in
  let main = walk [] p.Program.main in
  ( { p with Program.main },
    { promoted = List.rev !promoted; rejected = List.rev !rejected } )

let pp_verdict ppf = function
  | Parallel -> Format.pp_print_string ppf "parallel"
  | Carried { array_name; distance } ->
      Format.fprintf ppf "loop-carried dependence on %s%s" array_name
        (match distance with
        | Some k -> Printf.sprintf " (distance %d)" k
        | None -> "")
  | Scalar_flow v -> Format.fprintf ppf "scalar %s read before written" v
  | Live_out v -> Format.fprintf ppf "scalar %s read after the loop" v
  | Has_doall -> Format.pp_print_string ppf "already contains a DOALL"
  | Has_calls -> Format.pp_print_string ppf "contains procedure calls"

let pp_report ppf r =
  Format.fprintf ppf "@[<v>parallelizer: promoted %d loops, rejected %d"
    (List.length r.promoted) (List.length r.rejected);
  List.iter
    (fun (id, v) -> Format.fprintf ppf "@,  loop %d (%s): promoted to DOALL" id v)
    r.promoted;
  List.iter
    (fun (id, v, why) ->
      Format.fprintf ppf "@,  loop %d (%s): %a" id v pp_verdict why)
    r.rejected;
  Format.fprintf ppf "@]"
