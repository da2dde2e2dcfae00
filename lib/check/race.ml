open Ccdp_ir
open Ccdp_analysis

(* DOALL race detector.

   Every loop the program marks parallel must be free of cross-iteration
   dependences — the pipeline itself never re-checks hand-written (or
   corrupted) DOALL annotations; the runtime simply believes them. The
   test here is the parallelizer's ZIV/strong-SIV test on uniformly
   generated subscript pairs, extended with a Banerjee-style range test on
   the non-uniform ones: iteration-scoped variables of the two accesses
   are independent instances, so each side's subscript is narrowed to its
   extreme values by substituting loop bounds (innermost first, picked by
   coefficient sign), and the dependence equation is infeasible when the
   difference range excludes zero. The symbolic substitution is what
   proves triangular patterns like writing columns [k+1..n-1] while
   reading column [k] disjoint. *)

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

type dim_verdict = Disjoint | Same_iter | Neutral | Carried | Opaque

let dim_test ~var ~trip ~shared_env ~loops_a ~loops_b (ea : Affine.t)
    (eb : Affine.t) =
  if Affine.uniformly_generated ea eb then begin
    let c = Affine.coeff ea var in
    let delta = Affine.const_part eb - Affine.const_part ea in
    if c = 0 then if delta = 0 then Neutral else Disjoint
    else if delta = 0 then Same_iter
    else if delta mod c <> 0 then Disjoint
    else
      match trip with
      | Some t when abs (delta / c) >= t -> Disjoint
      | _ -> Carried
  end
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

let pair_carries ~var ~trip ~shared_env ~loops_a ~loops_b (a : Reference.t)
    (b : Reference.t) =
  let n = Array.length a.Reference.subs in
  if n <> Array.length b.Reference.subs then true
  else begin
    let verdicts =
      Array.init n (fun d ->
          dim_test ~var ~trip ~shared_env ~loops_a ~loops_b
            a.Reference.subs.(d) b.Reference.subs.(d))
    in
    if Array.exists (fun v -> v = Disjoint) verdicts then false
    else if Array.exists (fun v -> v = Same_iter) verdicts then false
    else true
  end

(* Scalar privatization check, per-iteration-definite: a nested serial
   loop executes entirely within one task, so its body sees its own
   earlier writes as definite (unlike Parallelize.scalar_flow, which is
   deliberately cruder for the promotion decision) — but nothing escapes
   the loop, which may run zero times, and a value carried only by the
   nested loop's back-edge is still undefined on its first iteration. *)
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
  let rec walk defined stmts =
    List.fold_left
      (fun defined s ->
        match s with
        | Stmt.Assign (_, e) ->
            expr_reads defined e;
            defined
        | Stmt.Sassign (v, e) ->
            expr_reads defined e;
            S.add v defined
        | Stmt.If (c, a, b) ->
            (match c with
            | Stmt.Fcond (_, x, y) ->
                expr_reads defined x;
                expr_reads defined y
            | Stmt.Icond _ -> ());
            let da = walk defined a in
            let db = walk defined b in
            S.union defined (S.inter da db)
        | Stmt.For l ->
            ignore (walk defined l.Stmt.body);
            defined
        | Stmt.Critical c ->
            (* a critical section executes in sequence within one task:
               its definitions are as definite as straight-line code *)
            walk defined c.Stmt.cbody
        | Stmt.Reduce r ->
            (* [Reduce] neither reads nor defines its variable here: the
               per-PE partial is seeded by the first contribution and the
               merged value only exists after the barrier *)
            expr_reads defined r.Stmt.rexpr;
            defined
        | Stmt.Call _ -> defined)
      defined stmts
  in
  try
    ignore (walk S.empty body);
    None
  with Flows v -> Some v

(* Commutative-associative operators: the only ones whose per-PE partials
   may be merged in any bracketing at the barrier. *)
let assoc_op = function
  | Fexpr.Add | Fexpr.Mul | Fexpr.Min | Fexpr.Max -> true
  | Fexpr.Sub | Fexpr.Div -> false

(* Reduction recognition sanity inside one DOALL: the operator must be
   commutative-associative, the variable must receive no ordinary
   assignment (the merged value would depend on PE interleaving), and all
   contributions to one variable must agree on the operator. *)
let judge_reductions ~eid (l : Stmt.loop) =
  let module S = Set.Make (String) in
  let reduces =
    List.rev
      (Stmt.fold
         (fun acc s -> match s with Stmt.Reduce r -> r :: acc | _ -> acc)
         [] l.Stmt.body)
  in
  let sassigned =
    Stmt.fold
      (fun acc s -> match s with Stmt.Sassign (v, _) -> S.add v acc | _ -> acc)
      S.empty l.Stmt.body
  in
  let mk loc msg =
    Diag.make Diag.Bad_reduction ~loc ~loop_id:l.Stmt.loop_id ~epoch:eid msg
  in
  let ops : (string, Fexpr.binop) Hashtbl.t = Hashtbl.create 4 in
  List.concat_map
    (fun (r : Stmt.reduce) ->
      let d1 =
        if assoc_op r.Stmt.rop then []
        else
          [
            mk r.Stmt.rloc
              (Printf.sprintf
                 "reduction on %s uses non-associative operator %s: per-PE \
                  partials cannot be merged in any order"
                 r.Stmt.rvar
                 (Fexpr.string_of_binop r.Stmt.rop));
          ]
      in
      let d2 =
        if S.mem r.Stmt.rvar sassigned then
          [
            mk r.Stmt.rloc
              (Printf.sprintf
                 "reduction variable %s is also written by an ordinary \
                  assignment in the same DOALL"
                 r.Stmt.rvar);
          ]
        else []
      in
      let d3 =
        match Hashtbl.find_opt ops r.Stmt.rvar with
        | Some op when op <> r.Stmt.rop ->
            [
              mk r.Stmt.rloc
                (Printf.sprintf
                   "reduction variable %s mixes operators %s and %s"
                   r.Stmt.rvar
                   (Fexpr.string_of_binop op)
                   (Fexpr.string_of_binop r.Stmt.rop));
            ]
        | Some _ -> []
        | None ->
            Hashtbl.replace ops r.Stmt.rvar r.Stmt.rop;
            []
      in
      d1 @ d2 @ d3)
    reduces

let judge_doall ~params ~outer ~eid (l : Stmt.loop) =
  let doall_diag fmt =
    Diag.makef Diag.Doall_race ~loc:l.Stmt.loc ~loop_id:l.Stmt.loop_id
      ~epoch:eid fmt
  in
  let red_diags = judge_reductions ~eid l in
  match scalar_flow l.Stmt.body with
  | Some v ->
      red_diags
      @ [
          doall_diag "loop %s is marked DOALL but scalar %s is read before \
                      written"
            l.Stmt.var v;
        ]
  | None ->
      let shared_env = Iterspace.of_loops ~params outer in
      let trip =
        Iterspace.trip_count l (Iterspace.of_loops ~params (outer @ [ l ]))
      in
      (* reference + its instance loop stack (this DOALL outermost) + the
         lock of its innermost enclosing critical section *)
      let refs = ref [] in
      let rec collect lock loops stmts =
        List.iter
          (fun s ->
            (match Stmt.direct_write s with
            | Some r -> refs := (true, r, loops, lock) :: !refs
            | None -> ());
            List.iter
              (fun r -> refs := (false, r, loops, lock) :: !refs)
              (Stmt.direct_reads s);
            match s with
            | Stmt.For m -> collect lock (loops @ [ m ]) m.Stmt.body
            | Stmt.If (c, a, b) ->
                (match c with
                | Stmt.Fcond (_, x, y) ->
                    List.iter
                      (fun r -> refs := (false, r, loops, lock) :: !refs)
                      (Fexpr.reads x @ Fexpr.reads y)
                | Stmt.Icond _ -> ());
                collect lock loops a;
                collect lock loops b
            | Stmt.Critical c -> collect (Some c.Stmt.lock) loops c.Stmt.cbody
            | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Reduce _ | Stmt.Call _ ->
                ())
          stmts
      in
      collect None [ l ] l.Stmt.body;
      let refs = List.rev !refs in
      (* one representative finding per category, first in syntactic
         order: a plain carried dependence (W003), a one-sided lock
         (W009), an inconsistent lock pair (W010). Pairs where both sides
         hold the same lock are discharged: the sections mutually
         exclude, and the in-critical staleness obligation (checked by
         Coverage) makes the protected values current. *)
      let plain = ref None and one_sided = ref None and mixed = ref None in
      List.iter
        (fun (wa, (a : Reference.t), loops_a, lka) ->
          List.iter
            (fun (wb, (b : Reference.t), loops_b, lkb) ->
              if
                (wa || wb)
                && String.equal a.Reference.array_name b.Reference.array_name
                && pair_carries ~var:l.Stmt.var ~trip ~shared_env ~loops_a
                     ~loops_b a b
              then
                match (lka, lkb) with
                | Some la, Some lb when String.equal la lb -> ()
                | Some la, Some lb ->
                    if !mixed = None then
                      mixed :=
                        Some
                          (Diag.makef Diag.Inconsistent_lock ~loc:l.Stmt.loc
                             ~ref_id:a.Reference.id ~loop_id:l.Stmt.loop_id
                             ~epoch:eid
                             "references %d and %d of %s conflict under \
                              different locks (%s vs %s): mutual exclusion \
                              does not compose across locks"
                             a.Reference.id b.Reference.id
                             a.Reference.array_name la lb)
                | (Some lk, None | None, Some lk) ->
                    if !one_sided = None then
                      one_sided :=
                        Some
                          (Diag.makef Diag.Unprotected_conflict
                             ~loc:l.Stmt.loc ~ref_id:a.Reference.id
                             ~loop_id:l.Stmt.loop_id ~epoch:eid
                             "references %d and %d of %s may touch the same \
                              element on different PEs but only one side \
                              holds lock %s"
                             a.Reference.id b.Reference.id
                             a.Reference.array_name lk)
                | None, None ->
                    if !plain = None then
                      plain :=
                        Some
                          (doall_diag
                             "loop %s is marked DOALL but references %d and \
                              %d of %s may touch the same element in \
                              different iterations"
                             l.Stmt.var a.Reference.id b.Reference.id
                             a.Reference.array_name))
            refs)
        refs;
      red_diags @ List.filter_map Fun.id [ !plain; !one_sided; !mixed ]

let check ~params (epochs : Epoch.t) =
  let diags = ref [] in
  let rec walk outer nodes =
    List.iter
      (fun node ->
        match node with
        | Epoch.E (eid, Epoch.Par l) ->
            diags := List.rev_append (judge_doall ~params ~outer ~eid l) !diags
        | Epoch.E (_, Epoch.Ser _) -> ()
        | Epoch.Loop (l, body) -> walk (outer @ [ l ]) body
        | Epoch.Branch (_, t, e) ->
            walk outer t;
            walk outer e)
      nodes
  in
  walk [] epochs.Epoch.nodes;
  List.rev !diags
