open Ccdp_ir

type verdict =
  | Parallel
  | Carried of { array_name : string; distance : int option }
  | Scalar_flow of string
  | Has_doall
  | Has_calls

(* ------------------------------------------------------------------ *)
(* Structure checks                                                    *)
(* ------------------------------------------------------------------ *)

let rec has_doall stmts =
  List.exists
    (fun s ->
      match s with
      | Stmt.For { kind = Stmt.Doall _; _ } -> true
      | Stmt.For l -> has_doall l.Stmt.body
      | Stmt.If (_, a, b) -> has_doall a || has_doall b
      | Stmt.Critical c -> has_doall c.Stmt.cbody
      | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Reduce _ -> false
      | Stmt.Call _ -> false)
    stmts

let rec has_call stmts =
  List.exists
    (fun s ->
      match s with
      | Stmt.Call _ -> true
      | Stmt.For l -> has_call l.Stmt.body
      | Stmt.If (_, a, b) -> has_call a || has_call b
      | Stmt.Critical c -> has_call c.Stmt.cbody
      | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Reduce _ -> false)
    stmts

(* ------------------------------------------------------------------ *)
(* Scalar privatization                                                *)
(* ------------------------------------------------------------------ *)

(* Walk one iteration of the body; [defined] holds scalars definitely
   written so far. A read of an undefined scalar defeats privatization
   (its value flows in from a previous iteration or from outside). Writes
   under conditionals or inside nested loops are not definite. *)
let scalar_flow body =
  let exception Flows of string in
  let module S = Set.Make (String) in
  let expr_reads defined e =
    let rec go = function
      | Fexpr.Svar v -> if not (S.mem v defined) then raise (Flows v)
      | Fexpr.Const _ | Fexpr.Ivar _ | Fexpr.Ref _ -> ()
      | Fexpr.Unop (_, a) -> go a
      | Fexpr.Binop (_, a, b) ->
          go a;
          go b
    in
    go e
  in
  let rec walk ~definite defined stmts =
    List.fold_left
      (fun defined s ->
        match s with
        | Stmt.Assign (_, e) ->
            expr_reads defined e;
            defined
        | Stmt.Sassign (v, e) ->
            expr_reads defined e;
            if definite then S.add v defined else defined
        | Stmt.If (c, a, b) ->
            (match c with
            | Stmt.Fcond (_, x, y) ->
                expr_reads defined x;
                expr_reads defined y
            | Stmt.Icond _ -> ());
            (* within a branch, execution is sequentially definite for the
               paths through it; a scalar is definitely written after the
               if only when both branches write it *)
            let da = walk ~definite defined a in
            let db = walk ~definite defined b in
            if definite then S.union defined (S.inter da db) else defined
        | Stmt.For l ->
            (* the nested loop may execute zero times: its writes are not
               definite, its reads still count *)
            ignore (walk ~definite:false defined l.Stmt.body);
            defined
        | Stmt.Critical c ->
            (* the body runs exactly once per arrival, in order *)
            walk ~definite defined c.Stmt.cbody
        | Stmt.Reduce r ->
            (* a recognized reduction neither reads nor definitely defines
               its variable from the body's point of view: partials are
               private and merged at the barrier *)
            expr_reads defined r.Stmt.rexpr;
            defined
        | Stmt.Call _ -> defined)
      defined stmts
  in
  try
    ignore (walk ~definite:true S.empty body);
    None
  with Flows v -> Some v

(* ------------------------------------------------------------------ *)
(* Dependence testing                                                  *)
(* ------------------------------------------------------------------ *)

type dim_verdict = Disjoint | Same_iter | Neutral | Carried_dist of int | Opaque

let dim_test ~var ~trip (ea : Affine.t) (eb : Affine.t) =
  if Affine.uniformly_generated ea eb then begin
    let c = Affine.coeff ea var in
    let delta = Affine.const_part eb - Affine.const_part ea in
    if c = 0 then if delta = 0 then Neutral else Disjoint
    else if delta = 0 then Same_iter
    else if delta mod c <> 0 then Disjoint
    else
      let k = delta / c in
      match trip with
      | Some t when abs k >= t -> Disjoint
      | _ -> Carried_dist k
  end
  else Opaque

(* Does the pair (a, b) carry a dependence across iterations of [var]? *)
let pair_carries ~var ~trip (a : Reference.t) (b : Reference.t) =
  let n = Array.length a.subs in
  if n <> Array.length b.subs then Some None
  else begin
    let verdicts = Array.init n (fun d -> dim_test ~var ~trip a.subs.(d) b.subs.(d)) in
    if Array.exists (fun v -> v = Disjoint) verdicts then None
    else if Array.exists (fun v -> v = Same_iter) verdicts then None
    else if Array.exists (fun v -> v = Opaque) verdicts then Some None
    else
      (* dims are Neutral or Carried_dist: any carried distance (or a pure
         Neutral aliasing, same element every iteration) is a dependence *)
      let dist =
        Array.fold_left
          (fun acc v -> match v with Carried_dist k -> Some k | _ -> acc)
          None verdicts
      in
      match dist with Some k -> Some (Some k) | None -> Some (Some 0)
  end

let judge ~params ~outer (l : Stmt.loop) =
  if has_call l.Stmt.body then Has_calls
  else if has_doall l.Stmt.body then Has_doall
  else
    match scalar_flow l.Stmt.body with
    | Some v -> Scalar_flow v
    | None -> (
        let env = Iterspace.of_loops ~params (outer @ [ l ]) in
        let trip = Iterspace.trip_count l env in
        let refs =
          List.rev
            (Stmt.fold_refs
               (fun acc ~write (r : Reference.t) -> (write, r) :: acc)
               [] l.Stmt.body)
        in
        let conflict = ref None in
        List.iter
          (fun (wa, (a : Reference.t)) ->
            List.iter
              (fun (wb, (b : Reference.t)) ->
                if
                  !conflict = None && (wa || wb)
                  && String.equal a.array_name b.array_name
                then
                  match pair_carries ~var:l.Stmt.var ~trip a b with
                  | Some dist ->
                      conflict := Some (Carried { array_name = a.array_name; distance = dist })
                  | None -> ())
              refs)
          refs;
        match !conflict with Some v -> v | None -> Parallel)

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
  let rec walk outer in_par stmts =
    List.map
      (fun s ->
        match s with
        | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Call _ | Stmt.Reduce _ -> s
        | Stmt.Critical c ->
            Stmt.Critical { c with cbody = walk outer in_par c.Stmt.cbody }
        | Stmt.If (c, a, b) -> Stmt.If (c, walk outer in_par a, walk outer in_par b)
        | Stmt.For ({ kind = Stmt.Doall _; _ } as l) ->
            Stmt.For { l with body = walk (outer @ [ l ]) true l.Stmt.body }
        | Stmt.For l ->
            if in_par then
              (* nested inside parallelism already: leave serial *)
              Stmt.For { l with body = walk (outer @ [ l ]) in_par l.Stmt.body }
            else (
              match judge ~params:p.Program.params ~outer l with
              | Parallel ->
                  promoted := (l.Stmt.loop_id, l.Stmt.var) :: !promoted;
                  Stmt.For { l with kind = Stmt.Doall (sched l) }
              | v ->
                  rejected := (l.Stmt.loop_id, l.Stmt.var, v) :: !rejected;
                  Stmt.For { l with body = walk (outer @ [ l ]) in_par l.Stmt.body }))
      stmts
  in
  let main = walk [] false p.Program.main in
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
