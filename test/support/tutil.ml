(* Shared helpers for the test suite. *)

open Ccdp_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_true msg b = Alcotest.(check bool) msg true b
let check_false msg b = Alcotest.(check bool) msg false b
let check_float msg a b = Alcotest.(check (float 1e-9)) msg a b

let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* install a whole [payload] line with [Cache.fill_from] (shared state,
   tick and version tags 0), returning the line it displaced, if any *)
let cache_fill c ~line payload =
  Ccdp_machine.Cache.fill_from c ~tick:0 ~state:Ccdp_machine.Coherence.shared
    ~vers:[||] ~line ~src:payload ~pos:0;
  match Ccdp_machine.Cache.last_evicted_line c with -1 -> None | l -> Some l

(* enumerate an arithmetic-progression dimension *)
let enum_dim (d : Section.dim) =
  let rec go x acc = if x > d.Section.hi then List.rev acc else go (x + d.Section.step) (x :: acc) in
  go d.Section.lo []

(* brute-force elements of a 1-D or 2-D section within given universe bounds *)
let enum_section2 s =
  match (s : Section.t) with
  | Section.Empty -> []
  | Section.Whole -> invalid_arg "enum_section2: whole"
  | Section.Dims [| a; b |] ->
      List.concat_map (fun x -> List.map (fun y -> (x, y)) (enum_dim b)) (enum_dim a)
  | Section.Dims _ -> invalid_arg "enum_section2: rank"

let enum_section1 s =
  match (s : Section.t) with
  | Section.Empty -> []
  | Section.Whole -> invalid_arg "enum_section1: whole"
  | Section.Dims [| a |] -> enum_dim a
  | Section.Dims _ -> invalid_arg "enum_section1: rank"

(* A small program builder used by several analysis tests: one init DOALL
   epoch writing [w] then one compute DOALL epoch reading via [mk_read]. *)
let two_epoch_program ?(n = 16) ~dist ~init_sched ~read_sched mk_read =
  let module B = Builder in
  let b = B.create ~name:"t" () in
  B.param b "n" n;
  B.array_ b "A" [| n; n |] ~dist;
  B.array_ b "O" [| n; n |] ~dist;
  let open B.A in
  let i = v "i" and j = v "j" in
  let init =
    B.doall b ~sched:init_sched "j" (bc 0) (bc (n - 1))
      [
        B.for_ b "i" (bc 0)
          (bc (n - 1))
          [ B.assign b "A" [ i; j ] Builder.F.(iv "i" + iv "j") ];
      ]
  in
  let compute =
    B.doall b ~sched:read_sched "j" (bc 0) (bc (n - 1))
      [
        B.for_ b "i" (bc 0)
          (bc (n - 1))
          [ B.assign b "O" [ i; j ] (Fexpr.Ref (mk_read b ~i ~j)) ];
      ]
  in
  B.finish b [ init; compute ]

module F = Builder.F

(* A race-free program whose enclosing scopes read an element, run a nested
   loop that overwrites it, and read it again: a DOALL iteration over one
   nested loop, one over two nested loops, and a serial epoch. Sequential
   semantics give D(0,j) = 1-j, D(1,j) = 10-3j and D(2,0) = 12; a register
   copy kept stale across the nested loop would give 2j, 4-j and 19. *)
let nested_store_craft =
  {|      PROGRAM NESTED
      REAL*8 A(8, 8)
CDIR$ SHARED A(:, :BLOCK)
      REAL*8 C(8, 8)
CDIR$ SHARED C(:, :BLOCK)
      REAL*8 B(8, 8)
CDIR$ SHARED B(:, :BLOCK)
      REAL*8 D(8, 8)
CDIR$ SHARED D(:, :BLOCK)
CDIR$ DOSHARED (J)
      DO J = 0, 7
        DO I = 0, 7
          A(i, j) = (i + 2*j)
          C(i, j) = (3*i - j)
        ENDDO
      ENDDO
CDIR$ DOSHARED (J)
      DO J = 0, 7
        B(0, j) = A(0, j)
        DO I = 0, 7
          A(i, j) = (C(i, j) + 1)
        ENDDO
        D(0, j) = A(0, j)
      ENDDO
CDIR$ DOSHARED (J)
      DO J = 0, 7
        B(1, j) = A(1, j)
        DO K = 1, 2
          DO I = 0, 7
            A(i, j) = (A(i, j) + C(i, j))
          ENDDO
        ENDDO
        D(1, j) = A(1, j)
      ENDDO
      B(2, 0) = A(2, 0)
      DO I = 0, 7
        A(i, 0) = (2*C(i, 0))
      ENDDO
      D(2, 0) = A(2, 0)
      END
|}

let nested_store_program () = Craft_parse.program nested_store_craft
