open Ccdp_ir
open Ccdp_test_support.Tutil

let sample = {|
      PROGRAM DEMO
      PARAMETER (N = 16)
      REAL*8 A(16, 16)
CDIR$ SHARED A(:, :BLOCK)
      REAL*8 T(16, 16)
CDIR$ SHARED T(:, :CYCLIC)
      REAL*8 R(16)
CDIR$ REPLICATED R
      REAL*8 P(16, 16)
C     a comment line
CDIR$ DOSHARED (J) !ALIGNED(16)
      DO J = 1, 14
        DO I = 1, 14
          ACC = (A(i - 1, j) + A(i + 1, j))
          IF (i .LT. 8) THEN
            A(i, j) = (ACC*0.25)
          ELSE
            A(i, j) = (ACC*0.5)
          ENDIF
        ENDDO
      ENDDO
      DO K = 0, n - 2 !runtime
        T(k, 0) = (T(k + 1, 1) + 1)
      ENDDO
      END
|}

let parsed () = Craft_parse.program sample

let basics =
  [
    case "sample parses and validates" (fun () ->
        let p = parsed () in
        Alcotest.(check (list string)) "valid" [] (Program.validate p);
        check_true "name" (p.Program.name = "demo"));
    case "declarations carry distribution and sharing" (fun () ->
        let p = parsed () in
        let a = Program.find_array p "A" in
        check_true "block dim1" (Dist.distributed_dim a.Array_decl.dist = Some 1);
        let t = Program.find_array p "T" in
        (match t.Array_decl.dist with
        | Dist.Dims [| Dist.Degenerate; Dist.Cyclic |] -> ()
        | _ -> Alcotest.fail "cyclic expected");
        let r = Program.find_array p "R" in
        check_true "replicated" (r.Array_decl.dist = Dist.Replicated);
        let pv = Program.find_array p "P" in
        check_false "private" pv.Array_decl.shared);
    case "parameters are bound" (fun () ->
        check_int "n" 16 (Program.param (parsed ()) "n"));
    case "doshared binds to the following DO with its schedule" (fun () ->
        let p = parsed () in
        match p.Program.main with
        | Stmt.For l :: _ -> (
            match l.Stmt.kind with
            | Stmt.Doall (Stmt.Static_aligned 16) -> ()
            | _ -> Alcotest.fail "aligned doall expected")
        | _ -> Alcotest.fail "loop expected");
    case "runtime bounds become opaque" (fun () ->
        let p = parsed () in
        match List.rev p.Program.main with
        | Stmt.For l :: _ ->
            check_false "opaque" (Bound.is_known l.Stmt.hi);
            check_int "executable" 14 (Bound.eval_exec l.Stmt.hi (fun _ -> 16))
        | _ -> Alcotest.fail "loop expected");
    case "identifier resolution: induction vars vs scalars" (fun () ->
        let p = parsed () in
        let has_svar = ref false and has_ivar = ref false in
        let rec scan (e : Fexpr.t) =
          match e with
          | Fexpr.Svar "acc" -> has_svar := true
          | Fexpr.Ivar _ -> has_ivar := true
          | Fexpr.Unop (_, a) -> scan a
          | Fexpr.Binop (_, a, b) -> scan a; scan b
          | _ -> ()
        in
        ignore
          (Stmt.fold
             (fun () s ->
               match s with
               | Stmt.Assign (_, e) | Stmt.Sassign (_, e) -> scan e
               | _ -> ())
             () p.Program.main);
        check_true "scalar acc" !has_svar);
    case "the parsed program runs and verifies" (fun () ->
        let p = parsed () in
        let cfg = Ccdp_machine.Config.t3d ~n_pes:4 in
        let c = Ccdp_core.Pipeline.compile cfg p in
        let r =
          Ccdp_runtime.Interp.run cfg c.Ccdp_core.Pipeline.program
            ~plan:c.Ccdp_core.Pipeline.plan ~mode:Ccdp_runtime.Memsys.Ccdp ()
        in
        let v = Ccdp_runtime.Verify.against_sequential p ~init:(fun _ -> ()) r in
        check_true "verified" v.Ccdp_runtime.Verify.ok);
  ]

let errors =
  [
    case "undeclared array use is reported with a line number" (fun () ->
        let bad = "      PROGRAM X\n      ZZ(1) = 2.0\n      END\n" in
        check_true "raises"
          (try ignore (Craft_parse.program bad); false
           with Craft_parse.Error (ln, _, _) -> ln = 2));
    case "unbalanced DO is reported" (fun () ->
        let bad =
          "      PROGRAM X\n      REAL*8 A(4)\n      DO I = 0, 3\n      A(i) = 1.0\n      END\n"
        in
        check_true "raises"
          (try ignore (Craft_parse.program bad); false
           with Craft_parse.Error _ -> true));
    case "garbage characters are rejected" (fun () ->
        check_true "raises"
          (try ignore (Craft_parse.program "      PROGRAM X\n      # nope\n"); false
           with Craft_parse.Error _ -> true));
  ]

(* malformed inputs must name the offending line AND column (1-based, on
   the original line including indentation; column 0 = structural) *)
let position src =
  try
    ignore (Craft_parse.program src);
    Alcotest.fail "expected a parse error"
  with Craft_parse.Error (ln, col, _) -> (ln, col)

let error_positions =
  [
    case "unexpected character points at its column" (fun () ->
        (*                 123456789012345 *)
        let src = "      PROGRAM X\n      A = 1.0 # no\n      END\n" in
        check_int "line" 2 (fst (position src));
        check_int "col" 15 (snd (position src)));
    case "missing loop bound points at the stray comma" (fun () ->
        let src =
          "      PROGRAM X\n      REAL*8 A(4)\n      DO I = 0, , 3\n      \
           A(I) = 1.0\n      ENDDO\n      END\n"
        in
        check_int "line" 3 (fst (position src));
        check_int "col" 17 (snd (position src)));
    case "unknown CDIR$ directive points at the directive word" (fun () ->
        let src =
          "      PROGRAM X\n      REAL*8 A(4)\n      CDIR$ BOGUS A\n      END\n"
        in
        check_int "line" 3 (fst (position src));
        check_int "col" 13 (snd (position src)));
    case "unclosed subscript points at the token found instead" (fun () ->
        let src =
          "      PROGRAM X\n      REAL*8 A(4)\n      A(1 = 2.0\n      END\n"
        in
        check_int "line" 3 (fst (position src));
        check_int "col" 11 (snd (position src)));
    case "bad relational operator points at its dot" (fun () ->
        let src =
          "      PROGRAM X\n      REAL*8 A(4)\n      DO I = 0, 3\n      IF \
           (I .XX. 2) THEN\n      A(I) = 1.0\n      ENDIF\n      ENDDO\n      \
           END\n"
        in
        check_int "line" 4 (fst (position src));
        check_int "col" 13 (snd (position src)));
    case "a zero-size dimension is rejected at its token" (fun () ->
        (*                                 1234567890123456789 *)
        let src = "      PROGRAM X\n      REAL*8 A(4, 0)\n      END\n" in
        match Craft_parse.program src with
        | _ -> Alcotest.fail "expected a parse error"
        | exception Craft_parse.Error (ln, col, msg) ->
            check_int "line" 2 ln;
            check_int "col" 19 col;
            Alcotest.(check string)
              "message" "array dimension must be at least 1" msg);
    case "structural failures use column 0" (fun () ->
        let src =
          "      PROGRAM X\n      REAL*8 A(4)\n      DO I = 0, 3\n      A(I) \
           = 1.0\n      END\n"
        in
        check_int "line" 3 (fst (position src));
        check_int "col" 0 (snd (position src)));
  ]

(* ---- round trip: emit -> parse -> identical analysis and execution ---- *)

let roundtrip_one name =
  let w = Ccdp_workloads.Suite.find ~n:16 ~iters:2 name in
  let cfg = Ccdp_machine.Config.t3d ~n_pes:4 in
  let c1 = Ccdp_core.Pipeline.compile cfg w.Ccdp_workloads.Workload.program in
  let text = Ccdp_core.Craft_emit.to_string c1 in
  let p2 = Craft_parse.program text in
  let c2 = Ccdp_core.Pipeline.compile cfg p2 in
  let counts (c : Ccdp_core.Pipeline.t) = Ccdp_analysis.Annot.count c.Ccdp_core.Pipeline.plan in
  check_int (name ^ " stale count") c1.Ccdp_core.Pipeline.stale.Ccdp_analysis.Stale.n_stale
    c2.Ccdp_core.Pipeline.stale.Ccdp_analysis.Stale.n_stale;
  check_int (name ^ " leads") (counts c1).Ccdp_analysis.Annot.n_lead
    (counts c2).Ccdp_analysis.Annot.n_lead;
  check_int (name ^ " vector ops") (counts c1).Ccdp_analysis.Annot.n_vector
    (counts c2).Ccdp_analysis.Annot.n_vector;
  let run (c : Ccdp_core.Pipeline.t) =
    Ccdp_runtime.Interp.run cfg c.Ccdp_core.Pipeline.program
      ~plan:c.Ccdp_core.Pipeline.plan ~mode:Ccdp_runtime.Memsys.Ccdp ()
  in
  let r1 = run c1 and r2 = run c2 in
  check_int (name ^ " cycles agree") r1.Ccdp_runtime.Interp.cycles
    r2.Ccdp_runtime.Interp.cycles;
  let v =
    Ccdp_runtime.Verify.compare_states ~expected:r1.Ccdp_runtime.Interp.sys
      ~got:r2.Ccdp_runtime.Interp.sys c2.Ccdp_core.Pipeline.program
  in
  check_true (name ^ " same numerics") v.Ccdp_runtime.Verify.ok

let roundtrip =
  List.map
    (fun name -> case ("emit/parse round-trip: " ^ name) (fun () -> roundtrip_one name))
    [ "mxm"; "vpenta"; "tomcatv"; "jacobi"; "opaque"; "triad"; "transpose"; "dynamic" ]

let () =
  Alcotest.run "craft-parse"
    [
      ("basics", basics);
      ("errors", errors);
      ("error-positions", error_positions);
      ("round-trip", roundtrip);
    ]
