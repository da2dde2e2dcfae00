open Ccdp_ir
open Ccdp_test_support.Tutil

let decl = Array_decl.make "A" [| 4; 6 |]

let linearization =
  [
    case "column-major: dim 0 is contiguous" (fun () ->
        check_int "0,0" 0 (Array_decl.linear_index decl [| 0; 0 |]);
        check_int "1,0" 1 (Array_decl.linear_index decl [| 1; 0 |]);
        check_int "0,1" 4 (Array_decl.linear_index decl [| 0; 1 |]));
    case "last element" (fun () ->
        check_int "last" 23 (Array_decl.linear_index decl [| 3; 5 |]));
    case "out of range rejected" (fun () ->
        check_true "raises"
          (try ignore (Array_decl.linear_index decl [| 4; 0 |]); false
           with Invalid_argument _ -> true));
    case "rank mismatch rejected" (fun () ->
        check_true "raises"
          (try ignore (Array_decl.linear_index decl [| 1 |]); false
           with Invalid_argument _ -> true));
    case "elems and words" (fun () ->
        check_int "elems" 24 (Array_decl.elems decl);
        check_int "words" 24
          (Ccdp_craft.Layout.make ~n_pes:1 decl).Ccdp_craft.Layout.per_pe_words);
  ]

let constructor_checks =
  [
    case "empty dimension rejected" (fun () ->
        check_true "raises"
          (try ignore (Array_decl.make "A" [| 3; 0 |]); false
           with Invalid_argument _ -> true));
    case "distribution rank mismatch rejected" (fun () ->
        check_true "raises"
          (try
             ignore (Array_decl.make "A" [| 3; 3 |] ~dist:(Dist.block_along ~rank:3 ~dim:0));
             false
           with Invalid_argument _ -> true));
    case "dist helpers place pattern on requested dim" (fun () ->
        check_true "dim1" (Dist.distributed_dim (Dist.block_along ~rank:2 ~dim:1) = Some 1);
        check_true "dim0" (Dist.distributed_dim (Dist.cyclic_along ~rank:2 ~dim:0) = Some 0);
        check_true "repl" (Dist.distributed_dim Dist.replicated = None));
    case "block_along rejects bad dim" (fun () ->
        check_true "raises"
          (try ignore (Dist.block_along ~rank:2 ~dim:2); false
           with Invalid_argument _ -> true));
  ]

let props =
  [
    qcheck "point_of_linear inverts linear_index"
      QCheck.(pair (int_range 0 3) (int_range 0 5))
      (fun (i, j) ->
        Array_decl.point_of_linear decl (Array_decl.linear_index decl [| i; j |])
        = [| i; j |]);
    qcheck "linear_index is injective over the domain"
      QCheck.(pair (pair (int_range 0 3) (int_range 0 5)) (pair (int_range 0 3) (int_range 0 5)))
      (fun (((i1, j1) as a), ((i2, j2) as b)) ->
        a = b
        || Array_decl.linear_index decl [| i1; j1 |]
           <> Array_decl.linear_index decl [| i2; j2 |]);
  ]

let () =
  Alcotest.run "array-dist"
    [
      ("linearization", linearization);
      ("constructors", constructor_checks);
      ("properties", props);
    ]
