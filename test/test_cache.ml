open Ccdp_machine
open Ccdp_test_support.Tutil

let mk ?(sets = 8) ?(line_words = 4) () = Cache.create ~sets ~line_words

let payload v = Array.make 4 v

let basic =
  [
    case "miss then hit after fill" (fun () ->
        let c = mk () in
        check_true "miss" (Cache.read c ~addr:12 = None);
        ignore (cache_fill c ~line:3 (payload 7.0));
        check_true "hit" (Cache.read c ~addr:12 = Some 7.0);
        check_true "word select" (Cache.read c ~addr:15 = Some 7.0));
    case "fill evicts the conflicting line (direct-mapped)" (fun () ->
        let c = mk () in
        ignore (cache_fill c ~line:1 (payload 1.0));
        let evicted = cache_fill c ~line:9 (payload 2.0) in
        check_true "evicted line 1" (evicted = Some 1);
        check_true "old gone" (Cache.read c ~addr:4 = None);
        check_true "new present" (Cache.read c ~addr:36 = Some 2.0));
    case "refilling the same line reports no eviction" (fun () ->
        let c = mk () in
        ignore (cache_fill c ~line:1 (payload 1.0));
        check_true "none" (cache_fill c ~line:1 (payload 3.0) = None);
        check_true "updated" (Cache.read c ~addr:4 = Some 3.0));
    case "update_if_present patches only resident lines" (fun () ->
        let c = mk () in
        let mem = Array.make 4 9.0 in
        Cache.update_if_present c ~mem ~addr:0 ~ver:(-1);
        check_true "still miss" (Cache.read c ~addr:0 = None);
        ignore (cache_fill c ~line:0 (payload 1.0));
        Cache.update_if_present c ~mem ~addr:2 ~ver:(-1);
        check_true "patched" (Cache.read c ~addr:2 = Some 9.0);
        check_true "neighbours kept" (Cache.read c ~addr:1 = Some 1.0));
    case "invalidate_line removes exactly one line" (fun () ->
        let c = mk () in
        ignore (cache_fill c ~line:0 (payload 1.0));
        ignore (cache_fill c ~line:1 (payload 2.0));
        Cache.invalidate_line c ~line:0;
        check_true "gone" (Cache.read c ~addr:0 = None);
        check_true "kept" (Cache.read c ~addr:4 = Some 2.0);
        check_int "valid" 1 (Cache.valid_lines c));
    case "invalidate_all clears everything" (fun () ->
        let c = mk () in
        ignore (cache_fill c ~line:0 (payload 1.0));
        ignore (cache_fill c ~line:1 (payload 2.0));
        Cache.invalidate_all c;
        check_int "valid" 0 (Cache.valid_lines c));
    case "of_config matches the machine geometry" (fun () ->
        let cfg = Config.t3d ~n_pes:1 in
        let c = Cache.of_config cfg in
        check_int "line words" cfg.Config.line_words (Cache.line_words c));
  ]

let props =
  [
    qcheck "a filled line always hits until evicted or invalidated"
      QCheck.(int_range 0 100)
      (fun line ->
        let c = mk () in
        ignore (cache_fill c ~line (payload (float_of_int line)));
        Cache.read c ~addr:(line * 4) = Some (float_of_int line));
    qcheck "valid_lines never exceeds capacity"
      QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (int_range 0 100))
      (fun lines ->
        let c = mk () in
        List.iter (fun l -> ignore (cache_fill c ~line:l (payload 0.0))) lines;
        Cache.valid_lines c <= 8);
  ]

(* Model-based replacement properties: a naive model holding at most one
   line per set must agree with the real cache on every hit, every
   eviction tag, slot reuse on refill, and final occupancy — for a line
   blitted from its own payload and from its place in memory alike. *)

let model_sets = 4

(* replay [ops] on the model; returns (eviction tags, read results,
   resident-line count), in op order *)
let run_model ops =
  let sets = Array.make model_sets None in
  let evs = ref [] and rds = ref [] in
  List.iter
    (fun (is_fill, line) ->
      let s = line mod model_sets in
      if is_fill then begin
        (* a resident line reuses its slot: no eviction *)
        let ev =
          match sets.(s) with Some l when l <> line -> Some l | _ -> None
        in
        evs := ev :: !evs;
        sets.(s) <- Some line
      end
      else
        rds :=
          (if sets.(s) = Some line then Some (float_of_int line) else None)
          :: !rds)
    ops;
  ( List.rev !evs,
    List.rev !rds,
    Array.fold_left (fun n l -> if l = None then n else n + 1) 0 sets )

let ops_arb =
  QCheck.(
    list_of_size (QCheck.Gen.int_range 0 60) (pair bool (int_range 0 11)))

let fill_props =
  [
    qcheck "fill agrees with a naive LRU model (hits, evictions, occupancy)"
      ops_arb
      (fun ops ->
        let c = mk ~sets:model_sets () in
        let m_evs, m_rds, m_n = run_model ops in
        let evs = ref [] and rds = ref [] in
        List.iter
          (fun (is_fill, line) ->
            if is_fill then
              evs := cache_fill c ~line (payload (float_of_int line)) :: !evs
            else rds := Cache.read c ~addr:(line * 4) :: !rds)
          ops;
        List.rev !evs = m_evs && List.rev !rds = m_rds
        && Cache.valid_lines c = m_n);
    qcheck "fill_from follows the same policy; locate/data_at match read"
      ops_arb
      (fun ops ->
        let c = mk ~sets:model_sets () in
        let c' = mk ~sets:model_sets () in
        (* simulated memory: every word of line l holds float l *)
        let mem = Array.init (12 * 4) (fun i -> float_of_int (i / 4)) in
        let word = [| 0.0 |] in
        List.for_all
          (fun (is_fill, line) ->
            if is_fill then begin
              ignore (cache_fill c ~line (payload (float_of_int line)));
              Cache.fill_from c' ~tick:0 ~state:1 ~vers:[||] ~line ~src:mem ~pos:(line * 4);
              true
            end
            else begin
              let addr = (line * 4) + (line mod 4) in
              let r = Cache.read c ~addr in
              let off = Cache.locate c' ~addr in
              let r' =
                if off < 0 then None
                else begin
                  Cache.data_at c' off word 0;
                  Some word.(0)
                end
              in
              r = r'
            end)
          ops
        && Cache.valid_lines c = Cache.valid_lines c');
  ]

let () =
  Alcotest.run "cache"
    [ ("behaviour", basic); ("properties", props); ("fill properties", fill_props) ]
