open Gen

(* replace element [i] of [l] by the elements [f (List.nth l i)] *)
let splice l i f =
  List.concat (List.mapi (fun k x -> if k = i then f x else [ x ]) l)

let drop_nth l i = splice l i (fun _ -> [])

(* one-step simplifications of a single statement *)
let stmt_steps (s : stmt_desc) =
  List.concat
    [
      (* drop one read (keep at least one so the statement stays a read) *)
      (if List.length s.reads > 1 then
         List.mapi (fun k _ -> { s with reads = drop_nth s.reads k }) s.reads
       else []);
      (if s.guarded then [ { s with guarded = false } ] else []);
      (if s.doi <> 0 then [ { s with doi = 0 } ] else []);
      (* flatten one read's offsets *)
      List.concat
        (List.mapi
           (fun k (a, oi, oj) ->
             if oi <> 0 || oj <> 0 then
               [ { s with reads = splice s.reads k (fun _ -> [ (a, 0, 0) ]) } ]
             else [])
           s.reads);
    ]

let epoch_steps e =
  match e with
  | Sweep _ -> []
  | Lock l ->
      List.concat
        [
          (if not l.fused then [ Lock { l with fused = true } ] else []);
          (match l.sched with
          | Block -> []
          | _ -> [ Lock { l with sched = Block } ]);
          (if l.col <> 0 then [ Lock { l with col = 0 } ] else []);
          (if l.col2 <> 0 then [ Lock { l with col2 = 0 } ] else []);
        ]
  | Red r ->
      List.concat
        [
          (if r.seed then [ Red { r with seed = false } ] else []);
          (match r.sched with
          | Block -> []
          | _ -> [ Red { r with sched = Block } ]);
          (match r.op with
          | Radd -> []
          | _ -> [ Red { r with op = Radd } ]);
        ]
  | Par p ->
      List.concat
        [
          (* drop one statement *)
          (if List.length p.stmts > 1 then
             List.mapi
               (fun k _ -> Par { p with stmts = drop_nth p.stmts k })
               p.stmts
           else []);
          (* simplify one statement *)
          List.concat
            (List.mapi
               (fun k s ->
                 List.map
                   (fun s' -> Par { p with stmts = splice p.stmts k (fun _ -> [ s' ]) })
                   (stmt_steps s))
               p.stmts);
          (if p.opaque_hi then [ Par { p with opaque_hi = false } ] else []);
          (match p.sched with
          | Block -> []
          | _ -> [ Par { p with sched = Block } ]);
          (if p.lo1 then [ Par { p with lo1 = false } ] else []);
        ]

let candidates (d : desc) =
  List.concat
    [
      (* drop one epoch (keep at least one) *)
      (if List.length d.epochs > 1 then
         List.mapi (fun k _ -> { d with epochs = drop_nth d.epochs k }) d.epochs
       else []);
      (if d.wrap then [ { d with wrap = false } ] else []);
      (* simplify one epoch *)
      List.concat
        (List.mapi
           (fun k e ->
             List.map
               (fun e' -> { d with epochs = splice d.epochs k (fun _ -> [ e' ]) })
               (epoch_steps e))
           d.epochs);
      (if d.n_pes > 2 then [ { d with n_pes = 2 } ] else []);
      (if d.net <> Ccdp_machine.Net.Uniform then
         [ { d with net = Ccdp_machine.Net.Uniform } ]
       else []);
      (if d.pclean then [ { d with pclean = false } ] else []);
      (* shrinking the edge clamps sweep columns into the smaller array *)
      (if d.n > 8 then
         [
           {
             d with
             n = 8;
             epochs =
               List.map
                 (function
                   | Sweep s -> Sweep { s with col = min s.col (8 - 2) }
                   | Lock l ->
                       Lock
                         {
                           l with
                           col = min l.col (8 - 1);
                           col2 = min l.col2 (8 - 1);
                         }
                   | (Par _ | Red _) as e -> e)
                 d.epochs;
           };
         ]
       else []);
    ]

let minimize d ~still_fails =
  let budget = ref 400 in
  (* a candidate that fails to re-validate is skipped without consuming
     budget; a predicate that crashes on a candidate did not reproduce the
     original failure (the bug under minimization is the predicate's
     verdict, not whatever the candidate tripped over) *)
  let keeps c =
    match Gen.validate c with
    | Error _ -> false
    | Ok () ->
        if !budget <= 0 then false
        else begin
          decr budget;
          try still_fails c with _ -> false
        end
  in
  let rec go d =
    let next = List.find_opt keeps (candidates d) in
    match next with Some c when !budget > 0 -> go c | _ -> d
  in
  go d
