open Ccdp_ir
open Ccdp_runtime
open Ccdp_test_support.Tutil
module B = Builder
module F = Builder.F

let dist = Dist.block_along ~rank:2 ~dim:1

let program () =
  let b = B.create ~name:"am" () in
  B.array_ b "A" [| 8; 8 |] ~dist;
  B.array_ b "R" [| 8 |] ~dist:Dist.replicated;
  B.array_ b "Pv" [| 8 |] ~shared:false;
  B.finish b [ Stmt.Assign (B.ref_ b "A" [ B.A.c 0; B.A.c 0 ], F.const 0.0) ]

let map () = Addr_map.make (program ()) ~n_pes:4 ~line_words:4 ()

(* an element's address as [pe] sees it, through the handle path the
   simulator uses, and its target: -1 for the PE's own window, otherwise
   the owner's id *)
let resolve m ~pe name idx =
  let h = Addr_map.handle m name in
  let a = Addr_map.resolve_h h ~pe idx in
  (a, Addr_map.target_of h ~pe ~addr:a)

(* the canonical copy, the owner's (PE 0's for replicated data): the
   address as PE 0 sees it, which is how Memsys.get reads results back *)
let canonical m name idx = fst (resolve m ~pe:0 name idx)

let tests =
  [
    case "resolve distributed: owner-local vs remote" (fun () ->
        let m = map () in
        let _, w = resolve m ~pe:0 "A" [| 0; 0 |] in
        check_true "local" (w = -1);
        let _, w = resolve m ~pe:0 "A" [| 0; 7 |] in
        check_true "remote to 3" (w = 3));
    case "remote addresses live in the owner's window" (fun () ->
        let m = map () in
        let a, _ = resolve m ~pe:0 "A" [| 0; 7 |] in
        check_true "window" (a >= 3 * Addr_map.pe_span m && a < 4 * Addr_map.pe_span m));
    case "replicated arrays resolve locally on every PE" (fun () ->
        let m = map () in
        let a0, w0 = resolve m ~pe:0 "R" [| 3 |] in
        let a2, w2 = resolve m ~pe:2 "R" [| 3 |] in
        check_true "local both" (w0 = -1 && w2 = -1);
        check_true "different copies" (a0 <> a2));
    case "all_copies of replicated lists one per PE" (fun () ->
        let m = map () in
        check_int "4 copies" 4 (List.length (Addr_map.all_copies m "R" [| 3 |]));
        check_int "1 copy" 1 (List.length (Addr_map.all_copies m "A" [| 0; 0 |])));
    case "canonical picks the owner copy" (fun () ->
        let m = map () in
        let c = canonical m "A" [| 0; 5 |] in
        let a, _ = resolve m ~pe:2 "A" [| 0; 5 |] in
        check_int "owner copy" a c);
    case "distinct elements get distinct addresses" (fun () ->
        let m = map () in
        let seen = Hashtbl.create 64 in
        for i = 0 to 7 do
          for j = 0 to 7 do
            let a = canonical m "A" [| i; j |] in
            check_false "dup" (Hashtbl.mem seen a);
            Hashtbl.replace seen a ()
          done
        done);
    case "total_words covers every resolved address" (fun () ->
        let m = map () in
        for i = 0 to 7 do
          for j = 0 to 7 do
            for pe = 0 to 3 do
              let a, _ = resolve m ~pe "A" [| i; j |] in
              check_true "bounded" (a >= 0 && a < Addr_map.total_words m)
            done
          done
        done);
    case "coloring separates equal elements of different arrays" (fun () ->
        let b = B.create ~name:"col" () in
        B.array_ b "X" [| 8; 8 |] ~dist;
        B.array_ b "Y" [| 8; 8 |] ~dist;
        let p = B.finish b [ Stmt.Assign (B.ref_ b "X" [ B.A.c 0; B.A.c 0 ], F.const 0.0) ] in
        let m = Addr_map.make p ~n_pes:4 ~line_words:4 ~cache_lines:256 ()
        in
        let ax = canonical m "X" [| 0; 0 |] in
        let ay = canonical m "Y" [| 0; 0 |] in
        check_false "different sets" (ax / 4 mod 256 = ay / 4 mod 256));
  ]

(* round trips between the three views of an element: (pe, name, index)
   resolution, the canonical owner copy, and the all-copies enumeration *)
let round_trips =
  [
    case "owner resolution round-trips through the canonical address"
      (fun () ->
        let m = map () in
        for i = 0 to 7 do
          for j = 0 to 7 do
            let c = canonical m "A" [| i; j |] in
            let owner = c / Addr_map.pe_span m in
            let a, w = resolve m ~pe:owner "A" [| i; j |] in
            check_int "same address" c a;
            check_true "owner is local" (w = -1)
          done
        done);
    case "resolve lands in all_copies for every PE" (fun () ->
        let m = map () in
        List.iter
          (fun (name, idx) ->
            let copies = Addr_map.all_copies m name idx in
            for pe = 0 to 3 do
              let a, _ = resolve m ~pe name idx in
              check_true "member" (List.mem a copies)
            done)
          [ ("A", [| 2; 5 |]); ("R", [| 3 |]); ("Pv", [| 6 |]) ]);
    case "remote tag names the owner window" (fun () ->
        let m = map () in
        for pe = 0 to 3 do
          for j = 0 to 7 do
            let a, w = resolve m ~pe "A" [| 1; j |] in
            if w = -1 then check_int "local window" pe (a / Addr_map.pe_span m)
            else begin
              check_int "remote window" w (a / Addr_map.pe_span m);
              check_false "never self" (w = pe)
            end
          done
        done);
    case "array bases are line-aligned in every window" (fun () ->
        let m = map () in
        List.iter
          (fun (name, idx) ->
            List.iter
              (fun a -> check_int "aligned" 0 (a mod 4))
              (Addr_map.all_copies m name idx))
          [ ("A", [| 0; 0 |]); ("R", [| 0 |]); ("Pv", [| 0 |]) ]);
    case "replicated copies land at the same window offset" (fun () ->
        let m = map () in
        let offsets =
          List.map
            (fun a -> a mod Addr_map.pe_span m)
            (Addr_map.all_copies m "R" [| 5 |])
        in
        match offsets with
        | o :: rest -> List.iter (fun o' -> check_int "offset" o o') rest
        | [] -> Alcotest.fail "no copies");
  ]

let () =
  Alcotest.run "addr-map" [ ("mapping", tests); ("round-trips", round_trips) ]
