open Ccdp_ir
open Ccdp_analysis

(* DOALL race detector.

   Every loop the program marks parallel must be free of cross-iteration
   dependences — the pipeline itself never re-checks hand-written (or
   corrupted) DOALL annotations; the runtime simply believes them. The
   test is the parallelizer's own (Parallelize.scalar_flow, live_outs and
   conflicts: ZIV/strong-SIV plus a Banerjee-style range test, and
   per-iteration-definite privatization); what this module adds is the
   judgement of locks and reductions, which hand-written DOALLs carry and
   promoted loops never do. *)

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

let judge_doall ~params ~outer ~eid ~live_out (l : Stmt.loop) =
  let doall_diag fmt =
    Diag.makef Diag.Doall_race ~loc:l.Stmt.loc ~loop_id:l.Stmt.loop_id
      ~epoch:eid fmt
  in
  let red_diags = judge_reductions ~eid l in
  let scalar_race =
    match Parallelize.scalar_flow l.Stmt.body with
    | Some v -> Some (Printf.sprintf "scalar %s is read before written" v)
    | None ->
        Option.map
          (Printf.sprintf
             "scalar %s is read after it, where only one PE's last value \
              survives")
          live_out
  in
  match scalar_race with
  | Some why ->
      red_diags
      @ [ doall_diag "loop %s is marked DOALL but %s" l.Stmt.var why ]
  | None ->
      (* one representative finding per category, first in syntactic
         order: a plain carried dependence (W003), a one-sided lock
         (W009), an inconsistent lock pair (W010). Pairs where both sides
         hold the same lock are discharged: the sections mutually
         exclude, and the in-critical staleness obligation (checked by
         Coverage) makes the protected values current. *)
      let plain = ref None and one_sided = ref None and mixed = ref None in
      List.iter
        (fun ( { Parallelize.ref_ = a; lock = lka; _ },
               { Parallelize.ref_ = b; lock = lkb; _ },
               _ ) ->
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
                        different locks (%s vs %s): mutual exclusion does \
                        not compose across locks"
                       a.Reference.id b.Reference.id a.Reference.array_name
                       la lb)
          | (Some lk, None | None, Some lk) ->
              if !one_sided = None then
                one_sided :=
                  Some
                    (Diag.makef Diag.Unprotected_conflict ~loc:l.Stmt.loc
                       ~ref_id:a.Reference.id ~loop_id:l.Stmt.loop_id
                       ~epoch:eid
                       "references %d and %d of %s may touch the same \
                        element on different PEs but only one side holds \
                        lock %s"
                       a.Reference.id b.Reference.id a.Reference.array_name
                       lk)
          | None, None ->
              if !plain = None then
                plain :=
                  Some
                    (doall_diag
                       "loop %s is marked DOALL but references %d and %d of \
                        %s may touch the same element in different \
                        iterations"
                       l.Stmt.var a.Reference.id b.Reference.id
                       a.Reference.array_name))
        (Parallelize.conflicts ~params ~outer l);
      red_diags @ List.filter_map Fun.id [ !plain; !one_sided; !mixed ]

let check (p : Program.t) (epochs : Epoch.t) =
  let params = p.Program.params in
  let live = Parallelize.live_outs p.Program.main in
  let diags = ref [] in
  let rec walk outer nodes =
    List.iter
      (fun node ->
        match node with
        | Epoch.E (eid, Epoch.Par l) ->
            let live_out = List.assoc_opt l.Stmt.loop_id live in
            diags :=
              List.rev_append
                (judge_doall ~params ~outer ~eid ~live_out l)
                !diags
        | Epoch.E (_, Epoch.Ser _) -> ()
        | Epoch.Loop (l, body) -> walk (outer @ [ l ]) body
        | Epoch.Branch (_, t, e) ->
            walk outer t;
            walk outer e)
      nodes
  in
  walk [] epochs.Epoch.nodes;
  List.rev !diags
