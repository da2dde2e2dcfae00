open Ccdp_ir
open Ccdp_craft
open Ccdp_test_support.Tutil

let block_cols n p = Layout.make ~n_pes:p (Array_decl.make "A" [| n; n |] ~dist:(Dist.block_along ~rank:2 ~dim:1))
let cyclic_cols n p = Layout.make ~n_pes:p (Array_decl.make "A" [| n; n |] ~dist:(Dist.cyclic_along ~rank:2 ~dim:1))

let owners =
  [
    case "block: columns map to contiguous owners" (fun () ->
        let l = block_cols 8 4 in
        check_true "col0" (Layout.owner_id l [| 0; 0 |] = 0);
        check_true "col1" (Layout.owner_id l [| 5; 1 |] = 0);
        check_true "col2" (Layout.owner_id l [| 0; 2 |] = 1);
        check_true "col7" (Layout.owner_id l [| 0; 7 |] = 3));
    case "cyclic: columns deal round-robin" (fun () ->
        let l = cyclic_cols 8 4 in
        check_true "col0" (Layout.owner_id l [| 0; 0 |] = 0);
        check_true "col5" (Layout.owner_id l [| 0; 5 |] = 1);
        check_true "col7" (Layout.owner_id l [| 0; 7 |] = 3));
    case "replicated arrays are local everywhere" (fun () ->
        let l = Layout.make ~n_pes:4 (Array_decl.make "R" [| 4 |] ~dist:Dist.replicated) in
        check_true "local" (Layout.owner_id l [| 2 |] = -1));
    case "undistributed shared array lives on PE 0" (fun () ->
        let l = Layout.make ~n_pes:4 (Array_decl.make "S" [| 4 |]
          ~dist:(Dist.Dims [| Dist.Degenerate |])) in
        check_true "pe0" (Layout.owner_id l [| 3 |] = 0));
    case "block_cyclic interleaves blocks" (fun () ->
        let l =
          Layout.make ~n_pes:2
            (Array_decl.make "A" [| 2; 8 |] ~dist:(Dist.Dims [| Dist.Degenerate; Dist.Block_cyclic 2 |]))
        in
        check_true "cols 0-1 pe0" (Layout.owner_id l [| 0; 1 |] = 0);
        check_true "cols 2-3 pe1" (Layout.owner_id l [| 0; 2 |] = 1);
        check_true "cols 4-5 pe0" (Layout.owner_id l [| 0; 4 |] = 0));
  ]

let offsets =
  [
    case "per-PE words: block columns" (fun () ->
        let l = block_cols 8 4 in
        check_int "2 cols x 8" 16 l.Layout.per_pe_words);
    case "local offsets are column-major within the portion" (fun () ->
        let l = block_cols 8 4 in
        (* PE 1 holds columns 2,3: element (0,2) is its word 0; (1,2) word 1;
           (0,3) word 8 *)
        check_int "0,2" 0 (Layout.local_offset l [| 0; 2 |]);
        check_int "1,2" 1 (Layout.local_offset l [| 1; 2 |]);
        check_int "0,3" 8 (Layout.local_offset l [| 0; 3 |]));
    case "cyclic local offsets compress the stride" (fun () ->
        let l = cyclic_cols 8 4 in
        (* PE 0 holds columns 0 and 4: (0,4) is word 8 *)
        check_int "0,0" 0 (Layout.local_offset l [| 0; 0 |]);
        check_int "0,4" 8 (Layout.local_offset l [| 0; 4 |]));
    case "offsets stay within the per-PE extent" (fun () ->
        let l = block_cols 8 4 in
        for i = 0 to 7 do
          for j = 0 to 7 do
            let off = Layout.local_offset l [| i; j |] in
            check_true "in range" (off >= 0 && off < l.Layout.per_pe_words)
          done
        done);
    case "on one PE the offset is the strides' dot product" (fun () ->
        let dists =
          Dist.
            [
              replicated;
              Dims [| Degenerate; Degenerate |];
              block_along ~rank:2 ~dim:1;
              cyclic_along ~rank:2 ~dim:0;
              Dims [| Block_cyclic 3; Degenerate |];
            ]
        in
        List.iter
          (fun dist ->
            let l =
              Layout.make ~n_pes:1
                (Array_decl.make ~dist "A" [| 7; 5 |])
            in
            let s = Layout.strides l in
            for i = 0 to 6 do
              for j = 0 to 4 do
                check_int "offset"
                  ((s.(0) * i) + (s.(1) * j))
                  (Layout.local_offset l [| i; j |])
              done
            done)
          dists);
  ]

let owned =
  [
    case "owned_section of block columns" (fun () ->
        let l = block_cols 8 4 in
        let s = Layout.owned_section l 1 in
        check_true "owns (0,2)" (Section.mem s [| 0; 2 |]);
        check_true "owns (7,3)" (Section.mem s [| 7; 3 |]);
        check_false "not (0,4)" (Section.mem s [| 0; 4 |]));
    case "owned_section of cyclic columns is strided" (fun () ->
        let l = cyclic_cols 8 4 in
        let s = Layout.owned_section l 1 in
        check_true "col1" (Section.mem s [| 0; 1 |]);
        check_true "col5" (Section.mem s [| 0; 5 |]);
        check_false "col2" (Section.mem s [| 0; 2 |]));
    case "PE beyond the data owns nothing (block)" (fun () ->
        let l = block_cols 4 8 in
        check_true "empty" (Section.is_empty (Layout.owned_section l 7)));
    case "replicated owned section is whole" (fun () ->
        let l = Layout.make ~n_pes:4 (Array_decl.make "R" [| 4 |] ~dist:Dist.replicated) in
        check_true "whole" (Layout.owned_section l 2 = Section.whole));
  ]

let props =
  [
    qcheck "owner matches owned_section membership (block)"
      QCheck.(pair (int_range 0 7) (int_range 0 7))
      (fun (i, j) ->
        let l = block_cols 8 4 in
        let p = Layout.owner_id l [| i; j |] in
        p >= 0 && Section.mem (Layout.owned_section l p) [| i; j |]);
    qcheck "owner matches owned_section membership (cyclic)"
      QCheck.(pair (int_range 0 7) (int_range 0 7))
      (fun (i, j) ->
        let l = cyclic_cols 8 4 in
        let p = Layout.owner_id l [| i; j |] in
        p >= 0 && Section.mem (Layout.owned_section l p) [| i; j |]);
    qcheck "local_offset is injective per PE (block)"
      QCheck.(pair (pair (int_range 0 7) (int_range 0 7)) (pair (int_range 0 7) (int_range 0 7)))
      (fun ((i1, j1), (i2, j2)) ->
        let l = block_cols 8 4 in
        let o1 = Layout.owner_id l [| i1; j1 |]
        and o2 = Layout.owner_id l [| i2; j2 |] in
        o1 <> o2
        || (i1, j1) = (i2, j2)
        || Layout.local_offset l [| i1; j1 |] <> Layout.local_offset l [| i2; j2 |]);
  ]

let () =
  Alcotest.run "layout"
    [ ("owners", owners); ("offsets", offsets); ("owned-sections", owned); ("properties", props) ]
