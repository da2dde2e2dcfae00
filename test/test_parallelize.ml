open Ccdp_ir
open Ccdp_analysis
open Ccdp_test_support.Tutil
module B = Builder
module F = Builder.F

let dist1 = Dist.block_along ~rank:1 ~dim:0

(* DO I = lo, hi, step over [body_of b] *)
let mk_loop ?(lo = 1) ?(hi = 14) ?step body_of =
  let b = B.create ~name:"pz" () in
  B.param b "n" 16;
  B.array_ b "A" [| 16 |] ~dist:dist1;
  B.array_ b "Bv" [| 16 |] ~dist:dist1;
  B.array_ b "M" [| 16; 16 |] ~dist:(Dist.block_along ~rank:2 ~dim:1);
  let open B.A in
  let body = body_of b in
  let l =
    match B.for_ b ?step "i" (bc lo) (bc hi) body with
    | Stmt.For l -> l
    | _ -> assert false
  in
  (b, l)

let judge ?lo ?hi ?step body_of =
  let _, l = mk_loop ?lo ?hi ?step body_of in
  Parallelize.judge ~params:[ ("n", 16) ] ~outer:[] ~live_out:None l

let is_parallel = function Parallelize.Parallel -> true | _ -> false

let dependence_tests =
  [
    case "independent elementwise loop is parallel" (fun () ->
        check_true "parallel"
          (is_parallel
             (judge (fun b ->
                  [ B.assign b "A" [ B.A.v "i" ] (B.rd b "Bv" [ B.A.v "i" ]) ]))));
    case "first-order recurrence carries distance 1" (fun () ->
        match
          judge (fun b ->
              [
                B.assign b "A" [ B.A.v "i" ]
                  F.(B.rd b "A" [ B.A.(v "i" -! c 1) ] * const 0.5);
              ])
        with
        | Parallelize.Carried { array_name = "A"; distance = Some d } ->
            check_int "distance" 1 (abs d)
        | _ -> Alcotest.fail "expected carried dependence");
    case "read and write of the same element is same-iteration only" (fun () ->
        check_true "parallel"
          (is_parallel
             (judge (fun b ->
                  [
                    B.assign b "A" [ B.A.v "i" ]
                      F.(B.rd b "A" [ B.A.v "i" ] + const 1.0);
                  ]))));
    case "GCD-disjoint strides are parallel" (fun () ->
        check_true "parallel"
          (is_parallel
             (judge (fun b ->
                  [
                    B.assign b "A"
                      [ B.A.(2 *! v "i") ]
                      (B.rd b "A" [ B.A.(2 *! v "i" +! c 1) ]);
                  ]))));
    case "distance beyond the trip count is no dependence" (fun () ->
        check_true "parallel"
          (is_parallel
             (judge (fun b ->
                  [
                    B.assign b "A" [ B.A.v "i" ]
                      (B.rd b "A" [ B.A.(v "i" -! c 15) ]);
                  ]))));
    case "loop-invariant write is an output dependence" (fun () ->
        match
          judge (fun b -> [ B.assign b "A" [ B.A.c 3 ] (F.iv "i") ])
        with
        | Parallelize.Carried _ -> ()
        | _ -> Alcotest.fail "expected carried");
    case "a disjoint dimension kills the whole pair" (fun () ->
        (* M(i, 1) vs M(i-1, 2): columns differ -> never alias *)
        check_true "parallel"
          (is_parallel
             (judge (fun b ->
                  [
                    B.assign b "M" [ B.A.v "i"; B.A.c 1 ]
                      (B.rd b "M" [ B.A.(v "i" -! c 1); B.A.c 2 ]);
                  ]))));
    case "row recurrence in a matrix is caught" (fun () ->
        match
          judge (fun b ->
              [
                B.assign b "M" [ B.A.v "i"; B.A.c 1 ]
                  (B.rd b "M" [ B.A.(v "i" -! c 1); B.A.c 1 ]);
              ])
        with
        | Parallelize.Carried { array_name = "M"; _ } -> ()
        | _ -> Alcotest.fail "expected carried");
    case "a same-iteration dimension soundly kills coupled subscripts" (fun () ->
        (* write M(i, i) vs read M(i, 2i): the first dimension forces the
           iterations to coincide, so no carried dependence exists *)
        check_true "parallel"
          (is_parallel
             (judge (fun b ->
                  [
                    B.assign b "M" [ B.A.v "i"; B.A.v "i" ]
                      (B.rd b "M" [ B.A.v "i"; B.A.(2 *! v "i") ]);
                  ]))));
    case "fully coupled non-uniform subscripts are conservatively serial"
      (fun () ->
        match
          judge (fun b ->
              [
                B.assign b "M" [ B.A.(2 *! v "i"); B.A.(3 *! v "i") ]
                  (B.rd b "M" [ B.A.(3 *! v "i"); B.A.(2 *! v "i") ]);
              ])
        with
        | Parallelize.Carried _ -> ()
        | Parallelize.Parallel -> Alcotest.fail "must be conservative"
        | _ -> Alcotest.fail "unexpected verdict");
    case "a distance one short of the trip count is carried" (fun () ->
        (* i = 1..14: iteration 14 reads what iteration 1 wrote *)
        match
          judge (fun b ->
              [ B.assign b "A" [ B.A.v "i" ] (B.rd b "A" [ B.A.(v "i" -! c 13) ]) ])
        with
        | Parallelize.Carried { array_name = "A"; distance = Some d } ->
            check_int "distance" 13 (abs d)
        | _ -> Alcotest.fail "expected carried dependence");
    case "with step 2 a distance short of trip count times step is carried"
      (fun () ->
        (* I = 0,2,4,6: iteration 0 reads A(6), which iteration 6 writes *)
        match
          judge ~lo:0 ~hi:6 ~step:2 (fun b ->
              [
                B.assign b "A" [ B.A.v "i" ] (B.rd b "A" [ B.A.(v "i" +! c 6) ]);
              ])
        with
        | Parallelize.Carried { array_name = "A"; distance = Some d } ->
            check_int "distance" 6 (abs d)
        | _ -> Alcotest.fail "expected carried dependence");
    case "a distance that is no multiple of the step is no dependence"
      (fun () ->
        (* I = 0,2,..,14 writes the even elements and reads the odd ones *)
        check_true "parallel"
          (is_parallel
             (judge ~lo:0 ~hi:14 ~step:2 (fun b ->
                  [
                    B.assign b "A" [ B.A.v "i" ]
                      (B.rd b "A" [ B.A.(v "i" +! c 1) ]);
                  ]))));
  ]

let scalar_tests =
  [
    case "written-then-read temporaries are privatizable" (fun () ->
        check_true "parallel"
          (is_parallel
             (judge (fun b ->
                  [
                    Stmt.Sassign ("t", F.(B.rd b "Bv" [ B.A.v "i" ] * const 2.0));
                    B.assign b "A" [ B.A.v "i" ] (F.sv "t");
                  ]))));
    case "accumulators are not (no reduction recognition)" (fun () ->
        match
          judge (fun b ->
              [
                Stmt.Sassign ("acc", F.(sv "acc" + B.rd b "Bv" [ B.A.v "i" ]));
              ])
        with
        | Parallelize.Scalar_flow "acc" -> ()
        | _ -> Alcotest.fail "expected scalar flow");
    case "a write under a conditional is not a definite write" (fun () ->
        match
          judge (fun b ->
              [
                Stmt.If
                  ( Stmt.Icond (Stmt.Lt, B.A.v "i", B.A.c 8),
                    [ Stmt.Sassign ("t", F.const 1.0) ],
                    [] );
                B.assign b "A" [ B.A.v "i" ] (F.sv "t");
              ])
        with
        | Parallelize.Scalar_flow "t" -> ()
        | _ -> Alcotest.fail "expected scalar flow");
    case "writes in both branches are definite" (fun () ->
        check_true "parallel"
          (is_parallel
             (judge (fun b ->
                  [
                    Stmt.If
                      ( Stmt.Icond (Stmt.Lt, B.A.v "i", B.A.c 8),
                        [ Stmt.Sassign ("t", F.const 1.0) ],
                        [ Stmt.Sassign ("t", F.const 2.0) ] );
                    B.assign b "A" [ B.A.v "i" ] (F.sv "t");
                  ]))));
    case "a temporary defined and used inside a nested serial loop is privatizable"
      (fun () ->
        (* the nested loop runs within one task: its own earlier write is
           definite for its own later read *)
        check_true "parallel"
          (is_parallel
             (judge (fun b ->
                  [
                    B.for_ b "j" (B.A.bc 0) (B.A.bc 15)
                      [
                        Stmt.Sassign
                          ( "t",
                            F.(B.rd b "M" [ B.A.v "i"; B.A.v "j" ] * const 2.0) );
                        B.assign b "M" [ B.A.v "i"; B.A.v "j" ] (F.sv "t");
                      ];
                  ]))));
  ]

(* ---- the triangular range test and the live-out rule ---- *)

let promoted_vars rep = List.map snd rep.Parallelize.promoted

let rejected_verdicts rep =
  List.map (fun (_, v, why) -> (v, why)) rep.Parallelize.rejected

(* DO K = 0,14; DO J = K+1,15; DO I = 0,15: M(i,j) = M(i,j) - M(i,k)*0.5 *)
let triangular () =
  let b = B.create ~name:"tri" () in
  B.param b "n" 16;
  B.array_ b "M" [| 16; 16 |] ~dist:(Dist.block_along ~rank:2 ~dim:1);
  let open B.A in
  let i = v "i" and j = v "j" and k = v "k" in
  B.finish b
    [
      B.for_ b "k" (bc 0) (bc 14)
        [
          B.for_ b "j"
            (bk (k +! c 1))
            (bc 15)
            [
              B.for_ b "i" (bc 0) (bc 15)
                [
                  B.assign b "M" [ i; j ]
                    F.(B.rd b "M" [ i; j ] - (B.rd b "M" [ i; k ] * const 0.5));
                ];
            ];
        ];
    ]

(* DO I: A(i) = 1.5*i; DO I: T = A(i); Bv(i) = T; then [after] *)
let temp_program after =
  let b = B.create ~name:"tmp" () in
  B.param b "n" 16;
  B.array_ b "A" [| 16 |] ~dist:dist1;
  B.array_ b "Bv" [| 16 |] ~dist:dist1;
  let open B.A in
  let i = v "i" in
  B.finish b
    ([
       B.for_ b "i" (bc 0) (bc 15)
         [ B.assign b "A" [ i ] F.(const 1.5 * iv "i") ];
       B.for_ b "i" (bc 0) (bc 15)
         [
           Stmt.Sassign ("t", B.rd b "A" [ i ]);
           B.assign b "Bv" [ i ] (F.sv "t");
         ];
     ]
    @ after b)

let verifies_at_4 p =
  List.for_all
    (fun mode ->
      let s = Ccdp_core.Pipeline.for_mode ~n_pes:4 mode p in
      let r =
        Ccdp_runtime.Interp.run s.Ccdp_core.Pipeline.cfg
          s.Ccdp_core.Pipeline.program ~plan:s.Ccdp_core.Pipeline.plan ~mode ()
      in
      (Ccdp_runtime.Verify.against_sequential p ~init:(fun _ -> ()) r)
        .Ccdp_runtime.Verify.ok)
    [ Ccdp_runtime.Memsys.Base; Ccdp_runtime.Memsys.Ccdp ]

(* M and A initialized by two promotable loops q and p, then DO J = 1,14;
   DO I = 1,14: [body] *)
let nest_program body =
  let b = B.create ~name:"nest" () in
  B.param b "n" 16;
  B.array_ b "M" [| 16; 16 |] ~dist:(Dist.block_along ~rank:2 ~dim:1);
  B.array_ b "A" [| 32 |] ~dist:dist1;
  let open B.A in
  let p = v "p" in
  B.finish b
    [
      B.for_ b "q" (bc 0) (bc 15)
        [
          B.for_ b "p" (bc 0) (bc 15)
            [ B.assign b "M" [ p; v "q" ] F.((iv "p" * const 0.5) + iv "q") ];
        ];
      B.for_ b "p" (bc 0) (bc 31)
        [ B.assign b "A" [ p ] F.(iv "p" * const 0.25) ];
      B.for_ b "j" (bc 1) (bc 14) [ B.for_ b "i" (bc 1) (bc 14) (body b) ];
    ]

let nest_tests =
  [
    case "a nested temporary on a diagonal leaves the outer loop serial"
      (fun () ->
        (* T = M(i-1,j-1); M(i,j) = T*0.5: iteration j reads the column
           iteration j-1 writes, although no single dimension pins it *)
        let p', rep =
          Parallelize.transform
            (nest_program (fun b ->
                 let open B.A in
                 [
                   Stmt.Sassign
                     ("t", B.rd b "M" [ v "i" -! c 1; v "j" -! c 1 ]);
                   B.assign b "M" [ v "i"; v "j" ] F.(sv "t" * const 0.5);
                 ]))
        in
        Alcotest.(check (list string)) "q, p and i promoted" [ "q"; "p"; "i" ]
          (promoted_vars rep);
        (match rejected_verdicts rep with
        | [ ("j", Parallelize.Carried { array_name = "M"; _ }) ] -> ()
        | _ -> Alcotest.fail "expected j rejected for a dependence on M");
        check_true "verified" (verifies_at_4 p'));
    case "a subscript over an inner variable does not pin the outer one"
      (fun () ->
        (* A(i+j) is the same element for (i, j) and (i-1, j+1) *)
        let p', rep =
          Parallelize.transform
            (nest_program (fun b ->
                 let open B.A in
                 [
                   B.assign b "A" [ v "i" +! v "j" ]
                     F.(B.rd b "A" [ v "i" +! v "j" ] + const 1.0);
                 ]))
        in
        Alcotest.(check (list string)) "q, p and i promoted" [ "q"; "p"; "i" ]
          (promoted_vars rep);
        (match rejected_verdicts rep with
        | [ ("j", Parallelize.Carried { array_name = "A"; _ }) ] -> ()
        | _ -> Alcotest.fail "expected j rejected for a dependence on A");
        check_true "verified" (verifies_at_4 p'));
  ]

let precision_tests =
  [
    case "a triangular update is promoted: the range test splits columns"
      (fun () ->
        let p', rep = Parallelize.transform (triangular ()) in
        Alcotest.(check (list string)) "j promoted" [ "j" ] (promoted_vars rep);
        (match rejected_verdicts rep with
        | [ ("k", Parallelize.Carried { array_name = "M"; _ }) ] -> ()
        | _ -> Alcotest.fail "expected k rejected for a dependence on M");
        check_true "verified" (verifies_at_4 p'));
    case "a private scalar read after the loop is live out" (fun () ->
        let p = temp_program (fun b -> [ B.assign b "Bv" [ B.A.c 0 ] (F.sv "t") ]) in
        let p', rep = Parallelize.transform p in
        Alcotest.(check (list string)) "first loop promoted" [ "i" ]
          (promoted_vars rep);
        (match rejected_verdicts rep with
        | [ ("i", Parallelize.Live_out "t") ] -> ()
        | _ -> Alcotest.fail "expected the temporary's loop rejected live-out");
        check_true "verified" (verifies_at_4 p'));
    case "a read on the next trip of an enclosing serial loop is live out"
      (fun () ->
        let b = B.create ~name:"trip" () in
        B.param b "n" 16;
        B.array_ b "A" [| 16 |] ~dist:dist1;
        B.array_ b "Bv" [| 16 |] ~dist:dist1;
        let open B.A in
        let i = v "i" in
        let p =
          B.finish b
            [
              B.for_ b "it" (bc 1) (bc 2)
                [
                  B.assign b "A" [ c 0 ] (F.sv "t");
                  B.for_ b "i" (bc 1) (bc 15)
                    [
                      Stmt.Sassign ("t", B.rd b "Bv" [ i ]);
                      B.assign b "A" [ i ] (F.sv "t");
                    ];
                ];
            ]
        in
        let _, rep = Parallelize.transform p in
        Alcotest.(check (list string)) "nothing promoted" [] (promoted_vars rep);
        match rejected_verdicts rep with
        | [ ("it", Parallelize.Scalar_flow "t"); ("i", Parallelize.Live_out "t") ]
          ->
            ()
        | _ -> Alcotest.fail "expected it: scalar flow, i: live out");
    case "two loops reusing one temporary both stay promoted" (fun () ->
        let p =
          temp_program (fun b ->
              [
                B.for_ b "i" (B.A.bc 0) (B.A.bc 15)
                  [
                    Stmt.Sassign ("t", F.(B.rd b "Bv" [ B.A.v "i" ] + const 1.0));
                    B.assign b "A" [ B.A.v "i" ] (F.sv "t");
                  ];
                Stmt.Sassign ("t", F.const 0.0);
                B.assign b "Bv" [ B.A.c 0 ] (F.sv "t");
              ])
        in
        let p', rep = Parallelize.transform p in
        Alcotest.(check (list string)) "three promoted" [ "i"; "i"; "i" ]
          (promoted_vars rep);
        check_int "none rejected" 0 (List.length rep.Parallelize.rejected);
        check_true "verified" (verifies_at_4 p'));
  ]

(* ---- the shared test against numbers: demoted fuzz programs ---- *)

let rec demote s =
  match s with
  | Stmt.For l ->
      Stmt.For { l with kind = Stmt.Serial; body = List.map demote l.Stmt.body }
  | Stmt.If (c, a, b) -> Stmt.If (c, List.map demote a, List.map demote b)
  | Stmt.Critical c ->
      Stmt.Critical { c with cbody = List.map demote c.Stmt.cbody }
  | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Reduce _ | Stmt.Call _ -> s

let race_codes = [ "CCDP-W003"; "CCDP-W009"; "CCDP-W010"; "CCDP-W011" ]

let corpus_tests =
  [
    case "demoted fuzz programs re-promote race-free and verify" (fun () ->
        (* every DOALL of a generated program made serial, then
           auto-parallelized: whatever the parallelizer promotes, the
           certifier must find no race and BASE and CCDP must reproduce
           sequential execution at 4 PEs *)
        let rng = Random.State.make [| 1 |] in
        let programs = 120 and promoted = ref 0 and skipped = ref 0 in
        for _ = 1 to programs do
          let p = Ccdp_fuzz.Gen.build (Ccdp_fuzz.Gen.generate rng) in
          let serial = { p with Program.main = List.map demote p.Program.main } in
          if Program.validate serial <> [] then incr skipped
          else begin
            let p', rep = Parallelize.transform serial in
            promoted := !promoted + List.length rep.Parallelize.promoted;
            let t =
              Ccdp_core.Pipeline.compile (Ccdp_machine.Config.t3d ~n_pes:4) p'
            in
            List.iter
              (fun (d : Ccdp_check.Diag.t) ->
                let code = Ccdp_check.Diag.code_string d.Ccdp_check.Diag.code in
                if List.mem code race_codes then
                  Alcotest.failf "promoted program raises %s"
                    (Ccdp_check.Diag.to_string d))
              (Ccdp_check.Check.certify t);
            check_true "verified" (verifies_at_4 p')
          end
        done;
        Printf.printf "%d programs: %d loops promoted, %d demotions skipped\n"
          programs !promoted !skipped;
        check_true "the corpus promotes loops" (!promoted > 0));
    case "random affine loops re-promote and verify" (fun () ->
        (* generated programs carry no dependence the test could miss, so
           draw loops that do: DO I over 1-D X, Y, or a nest DO J; DO I
           over 2-D ones, the outer loop sometimes with step 2, with one
           to three statements over X, Y and a scalar T (a nest sometimes
           sets T before its inner loop), every subscript dimension
           a*i + b*j + k in bounds (a in -1..2, b in -1..1 in a nest), and
           sometimes a read of T after the loop; whatever is promoted must
           verify *)
        let rng = Random.State.make [| 3 |] in
        let r = Random.State.int rng in
        let programs = 1000 and nests = ref 0 in
        let singles = ref 0 and outers = ref 0 and inners = ref 0 in
        for _ = 1 to programs do
          let nest = r 2 = 0 in
          let n = if nest then 12 else 24 in
          let rank = if nest then 2 else 1 in
          let b = B.create ~name:"affine" () in
          B.param b "n" n;
          let dist = Dist.block_along ~rank ~dim:(rank - 1) in
          B.array_ b "X" (Array.make rank n) ~dist;
          B.array_ b "Y" (Array.make rank n) ~dist;
          let open B.A in
          let range () =
            let lo = r 4 in
            (lo, lo + 2 + r (n - 9))
          in
          let ilo, ihi = range () in
          let jlo, jhi = if nest then range () else (0, 0) in
          (* the step of the loop judged first: J in a nest, else I *)
          let step = if r 3 = 0 then 2 else 1 in
          let rec dim () =
            let a = [| -1; 0; 1; 1; 2 |].(r 5) in
            let bj = if nest then r 3 - 1 else 0 in
            let lo_hi co lo hi =
              (min (co * lo) (co * hi), max (co * lo) (co * hi))
            in
            let amin, amax = lo_hi a ilo ihi
            and bmin, bmax = lo_hi bj jlo jhi in
            let kmin = -(amin + bmin) and kmax = n - 1 - (amax + bmax) in
            if kmax < kmin then dim ()
            else
              (a *! v "i") +! (bj *! v "j") +! c (kmin + r (kmax - kmin + 1))
          in
          let sub () = List.init rank (fun _ -> dim ()) in
          let read () =
            match r 3 with
            | 0 -> F.sv "t"
            | k -> B.rd b (if k = 1 then "X" else "Y") (sub ())
          in
          let stmt () =
            match r 4 with
            | 0 -> Stmt.Sassign ("t", F.(read () * const 0.5))
            | k ->
                let dst = if k = 1 then "X" else "Y" in
                let s = sub () in
                B.assign b dst s F.((read () * const 0.5) + read ())
          in
          let body = List.init (1 + r 3) (fun _ -> stmt ()) in
          let init, loop =
            let last = bc (n - 1) in
            let idx, fj =
              if nest then ([ v "i"; v "j" ], F.iv "j")
              else ([ v "i" ], F.const 0.0)
            in
            let fill =
              B.for_ b "i" (bc 0) last
                [
                  B.assign b "X" idx F.((iv "i" * const 0.125) + fj);
                  B.assign b "Y" idx F.((iv "i" * const 0.0625) - fj);
                ]
            in
            if nest then begin
              incr nests;
              let set_t =
                if r 2 = 0 then [ Stmt.Sassign ("t", F.(iv "j" * const 0.25)) ]
                else []
              in
              ( B.for_ b "j" (bc 0) last [ fill ],
                B.for_ b ~step "j" (bc jlo) (bc jhi)
                  (set_t @ [ B.for_ b "i" (bc ilo) (bc ihi) body ]) )
            end
            else (fill, B.for_ b ~step "i" (bc ilo) (bc ihi) body)
          in
          let p =
            B.finish b
              ([ Stmt.Sassign ("t", F.const 0.75); init; loop ]
              @
              if r 3 = 0 then
                [ B.assign b "Y" (List.init rank (fun _ -> c 0)) (F.sv "t") ]
              else [])
          in
          let p', rep = Parallelize.transform p in
          (* the initialization loop is always promoted first *)
          (match rep.Parallelize.promoted with
          | [ _; (_, "j") ] -> incr outers
          | [ _; _ ] -> incr (if nest then inners else singles)
          | _ -> ());
          if not (verifies_at_4 p') then
            Alcotest.failf "promoted program does not verify:@.@[<v>%a@]"
              Stmt.pp_list p.Program.main
        done;
        Printf.printf
          "%d programs, %d nests: %d single loops, %d outer and %d inner \
           nest loops promoted\n"
          programs !nests !singles !outers !inners;
        check_true "every shape is promoted somewhere"
          (!singles > 0 && !outers > 0 && !inners > 0));
  ]

(* ---- end-to-end: auto-parallelize a sequential stencil ---- *)

let sequential_jacobi n iters =
  let b = B.create ~name:"seqjac" () in
  B.param b "n" n;
  B.param b "niter" iters;
  let dist = Dist.block_along ~rank:2 ~dim:1 in
  B.array_ b "G" [| n; n |] ~dist;
  B.array_ b "T" [| n; n |] ~dist;
  let open B.A in
  let rd = B.rd b in
  let i = v "i" and j = v "j" in
  let init =
    B.for_ b "j" (bc 0)
      (bc (n - 1))
      [
        B.for_ b "i" (bc 0)
          (bc (n - 1))
          [
            B.assign b "G" [ i; j ] F.((F.iv "i" - F.iv "j") * const 0.1);
            B.assign b "T" [ i; j ] (F.const 0.0);
          ];
      ]
  in
  let smooth src dst =
    B.for_ b "j" (bc 1)
      (bc (n - 2))
      [
        B.for_ b "i" (bc 1)
          (bc (n - 2))
          [
            B.assign b dst [ i; j ]
              F.(
                const 0.25
                * (rd src [ i -! c 1; j ]
                  + rd src [ i +! c 1; j ]
                  + rd src [ i; j -! c 1 ]
                  + rd src [ i; j +! c 1 ]));
          ];
      ]
  in
  B.finish b
    [ init; B.for_ b "it" (bc 1) (bv "niter") [ smooth "G" "T"; smooth "T" "G" ] ]

let transform_tests =
  [
    case "sequential Jacobi: outer sweep loops get promoted" (fun () ->
        let p = sequential_jacobi 16 2 in
        let p', rep = Parallelize.transform p in
        check_int "three promotions" 3 (List.length rep.Parallelize.promoted);
        check_true "time loop rejected"
          (List.exists
             (fun (_, v, _) -> v = "it")
             rep.Parallelize.rejected);
        Alcotest.(check (list string)) "still valid" [] (Program.validate p'));
    case "promoted program compiles and verifies under CCDP" (fun () ->
        let p = sequential_jacobi 16 2 in
        let p', _ = Parallelize.transform p in
        let cfg = Ccdp_machine.Config.t3d ~n_pes:4 in
        let compiled = Ccdp_core.Pipeline.compile cfg p' in
        let r =
          Ccdp_runtime.Interp.run cfg compiled.Ccdp_core.Pipeline.program
            ~plan:compiled.Ccdp_core.Pipeline.plan ~mode:Ccdp_runtime.Memsys.Ccdp
            ()
        in
        let v =
          Ccdp_runtime.Verify.against_sequential p' ~init:(fun _ -> ()) r
        in
        check_true "verified" v.Ccdp_runtime.Verify.ok);
    case "parallel execution of the promoted program is faster" (fun () ->
        let p = sequential_jacobi 16 2 in
        let p', _ = Parallelize.transform p in
        let cfg1 = Ccdp_machine.Config.t3d ~n_pes:1 in
        let cfg8 = Ccdp_machine.Config.t3d ~n_pes:8 in
        let seq =
          Ccdp_runtime.Interp.run cfg1 (Program.inline p)
            ~plan:(Annot.empty ()) ~mode:Ccdp_runtime.Memsys.Seq ()
        in
        let compiled = Ccdp_core.Pipeline.compile cfg8 p' in
        let par =
          Ccdp_runtime.Interp.run cfg8 compiled.Ccdp_core.Pipeline.program
            ~plan:compiled.Ccdp_core.Pipeline.plan ~mode:Ccdp_runtime.Memsys.Ccdp
            ()
        in
        check_true "speedup"
          (par.Ccdp_runtime.Interp.cycles < seq.Ccdp_runtime.Interp.cycles));
    case "already-parallel loops are left alone" (fun () ->
        let w = Ccdp_workloads.Extras.jacobi ~n:16 ~iters:1 in
        let p = Program.inline w.Ccdp_workloads.Workload.program in
        let _, rep = Parallelize.transform p in
        check_int "nothing promoted" 0 (List.length rep.Parallelize.promoted));
    case "inner loops of promoted loops stay serial" (fun () ->
        let p = sequential_jacobi 16 1 in
        let p', _ = Parallelize.transform p in
        (* no nested DOALLs: validation would reject them *)
        Alcotest.(check (list string)) "valid" [] (Program.validate p'));
    case "verdict printer covers the variants" (fun () ->
        let s v = Format.asprintf "%a" Parallelize.pp_verdict v in
        check_true "p" (String.length (s Parallelize.Parallel) > 0);
        check_true "c"
          (String.length
             (s (Parallelize.Carried { array_name = "A"; distance = Some 1 }))
          > 0);
        check_true "s" (String.length (s (Parallelize.Scalar_flow "x")) > 0));
  ]

let () =
  Alcotest.run "parallelize"
    [
      ("dependence", dependence_tests);
      ("scalars", scalar_tests);
      ("precision", precision_tests);
      ("nests", nest_tests);
      ("corpus", corpus_tests);
      ("transform", transform_tests);
    ]
