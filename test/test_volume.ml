open Ccdp_ir
open Ccdp_analysis
open Ccdp_test_support.Tutil
module B = Builder
module F = Builder.F

let cfg = Ccdp_machine.Config.tiny ~n_pes:4
(* tiny: hit=1 store=1 flop=1 loop_overhead=1 *)

let env = Iterspace.of_loops ~params:[ ("n", 8) ] []

let b_with_array () =
  let b = B.create ~name:"v" () in
  B.array_ b "A" [| 8; 8 |];
  b

let tests =
  [
    case "a bare assignment costs flops + reads + store" (fun () ->
        let b = b_with_array () in
        let open B.A in
        (* 2 flops + 2 reads (hit 1 each) + 1 store *)
        let s =
          B.assign b "A" [ c 0; c 0 ]
            F.(B.rd b "A" [ c 1; c 0 ] + (B.rd b "A" [ c 2; c 0 ] * const 2.0))
        in
        check_int "cycles" (2 + 2 + 1) (Volume.stmts_cycles cfg env [ s ]));
    case "scalar assignments cost their flops" (fun () ->
        check_int "one flop" 1
          (Volume.stmts_cycles cfg env
             [ Stmt.Sassign ("x", F.(const 1.0 + const 2.0)) ]));
    case "branches contribute their larger arm" (fun () ->
        let cheap = [ Stmt.Sassign ("x", F.const 1.0) ] in
        let pricey =
          [ Stmt.Sassign ("x", F.(const 1.0 + (const 2.0 * const 3.0))) ]
        in
        let s = Stmt.If (Stmt.Icond (Stmt.Lt, Affine.zero, Affine.one), cheap, pricey) in
        check_int "max arm" 2 (Volume.stmts_cycles cfg env [ s ]));
    case "nested loops multiply by their trip count" (fun () ->
        let b = b_with_array () in
        let open B.A in
        let s =
          B.for_ b "i" (bc 0) (bc 7)
            [ B.assign b "A" [ v "i"; c 0 ] (F.const 1.0) ]
        in
        (* 8 * (store 1 + loop 1) *)
        check_int "loop volume" 16 (Volume.stmts_cycles cfg env [ s ]));
    case "unknown trips fall back to the default" (fun () ->
        let b = b_with_array () in
        let s =
          B.for_ b "i" (B.A.bc 0) Bound.unknown
            [ B.assign b "A" [ B.A.v "i"; B.A.c 0 ] (F.const 1.0) ]
        in
        (* 8 * (store 1 + loop 1) *)
        check_int "default 8" 16 (Volume.stmts_cycles cfg env [ s ]));
    case "iter_cycles is the per-iteration cost" (fun () ->
        let b = b_with_array () in
        let open B.A in
        let l =
          match
            B.for_ b "i" (bc 0) (bc 7)
              [ B.assign b "A" [ v "i"; c 0 ] (B.rd b "A" [ v "i"; c 1 ]) ]
          with
          | Stmt.For l -> l
          | _ -> assert false
        in
        (* read 1 + store 1 + loop 1 *)
        check_int "per iter" 3 (Volume.iter_cycles cfg env l));
    case "words_read_per_iter counts shared reads" (fun () ->
        let b = b_with_array () in
        let open B.A in
        let l =
          match
            B.for_ b "i" (bc 0) (bc 7)
              [
                B.assign b "A" [ v "i"; c 0 ]
                  F.(B.rd b "A" [ v "i"; c 1 ] + B.rd b "A" [ v "i"; c 2 ]);
              ]
          with
          | Stmt.For l -> l
          | _ -> assert false
        in
        check_int "2 words" 2
          (Volume.words_read_per_iter
             ~decl_of:(fun _ -> Array_decl.make "A" [| 8; 8 |])
             l));
  ]

let () = Alcotest.run "volume" [ ("estimation", tests) ]
