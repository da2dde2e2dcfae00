(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, timed from the
   benchmark side: name, start, end, the enclosing span and the verified
   unit it belongs to. A pass's spans stay in memory until [write] dumps
   them as Chrome trace-event JSON (Perfetto opens it). Per pass,
   [totals] sums the durations of each span name, which is what the
   per-layer metrics report.

   Some spans time work the run path itself does not do: re-running the
   compiler phases one by one, emitting and re-parsing CRAFT text,
   certifying, lowering a plan or creating a memory system on their own,
   the 1-domain reference run of the shard workload. They are marked
   [~side:true]; [side_total] lets the benchmark subtract them when it
   compares a traced pass with an untraced one, so that the difference
   estimates the cost of tracing. *)

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  name : string;
  unit_id : int;
  side : bool;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;  (** newest first, this pass *)
  mutable next_id : int;
  mutable current : int;
  mutable current_side : bool;
  mutable unit_id : int;
  totals : (string, float) Hashtbl.t;  (** seconds per span name, this pass *)
  mutable side_total : float;  (** seconds in outermost side spans, this pass *)
}

let create () =
  {
    spans = [];
    next_id = 0;
    current = -1;
    current_side = false;
    unit_id = 0;
    totals = Hashtbl.create 64;
    side_total = 0.0;
  }

(* Start a new pass: spans and per-pass sums restart. *)
let new_pass tr =
  tr.spans <- [];
  Hashtbl.reset tr.totals;
  tr.side_total <- 0.0

let new_unit tr = tr.unit_id <- tr.unit_id + 1

let add tbl name v =
  Hashtbl.replace tbl name
    (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)

let span ?(side = false) tr name f =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  let parent = tr.current and parent_side = tr.current_side in
  tr.current <- id;
  tr.current_side <- parent_side || side;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    tr.current <- parent;
    tr.current_side <- parent_side;
    tr.spans <-
      { id; parent; name; unit_id = tr.unit_id; side; t0; t1 } :: tr.spans;
    add tr.totals name (t1 -. t0);
    if side && not parent_side then tr.side_total <- tr.side_total +. (t1 -. t0)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let total tr name = Option.value (Hashtbl.find_opt tr.totals name) ~default:0.0

let write tr path =
  let oc = open_out path in
  let origin =
    List.fold_left (fun m s -> Float.min m s.t0) infinity tr.spans
  in
  let us t = (t -. origin) *. 1e6 in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"unit\":%d,\"side\":%b}}\n"
        (if i = 0 then "" else ",")
        s.name (us s.t0) (us s.t1 -. us s.t0) s.id s.parent s.unit_id s.side)
    (List.rev tr.spans);
  output_string oc "]}\n";
  close_out oc
