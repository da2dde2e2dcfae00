open Ccdp_ir

type severity = Error | Warning

type code =
  | Uncovered_stale
  | Broken_cover
  | Doall_race
  | Spurious_cover
  | Redundant_prefetch
  | Dead_prefetch
  | Sp_missized
  | Vpg_missized
  | Unprotected_conflict
  | Inconsistent_lock
  | Bad_reduction

let code_string = function
  | Uncovered_stale -> "CCDP-W001"
  | Broken_cover -> "CCDP-W002"
  | Doall_race -> "CCDP-W003"
  | Spurious_cover -> "CCDP-W004"
  | Redundant_prefetch -> "CCDP-W005"
  | Dead_prefetch -> "CCDP-W006"
  | Sp_missized -> "CCDP-W007"
  | Vpg_missized -> "CCDP-W008"
  | Unprotected_conflict -> "CCDP-W009"
  | Inconsistent_lock -> "CCDP-W010"
  | Bad_reduction -> "CCDP-W011"

(* W001-W003 and the synchronization errors W009-W011 break the coherence
   argument itself; the lints are performance hazards, so a lint gate
   fails only on errors *)
let severity_of = function
  | Uncovered_stale | Broken_cover | Doall_race | Unprotected_conflict
  | Inconsistent_lock | Bad_reduction ->
      Error
  | Spurious_cover | Redundant_prefetch | Dead_prefetch | Sp_missized
  | Vpg_missized ->
      Warning

let severity_string = function Error -> "error" | Warning -> "warning"

type t = {
  code : code;
  severity : severity;
  message : string;
  loc : Loc.t;
  ref_id : int option;
  loop_id : int option;
  epoch : int option;
}

let make code ?(loc = Loc.Synthetic) ?ref_id ?loop_id ?epoch message =
  { code; severity = severity_of code; message; loc; ref_id; loop_id; epoch }

let makef code ?loc ?ref_id ?loop_id ?epoch fmt =
  Printf.ksprintf (make code ?loc ?ref_id ?loop_id ?epoch) fmt

let compare a b =
  let c = Loc.compare a.loc b.loc in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.code b.code in
    if c <> 0 then c else Stdlib.compare a.ref_id b.ref_id

let pp ppf d =
  Format.fprintf ppf "%s %s" (code_string d.code) (severity_string d.severity);
  (match d.loc with
  | Loc.Src _ -> Format.fprintf ppf " at %a" Loc.pp d.loc
  | Loc.Synthetic -> ());
  Format.fprintf ppf ": %s" d.message;
  let ctx =
    List.filter_map
      (fun (label, v) ->
        match v with Some v -> Some (Printf.sprintf "%s %d" label v) | None -> None)
      [ ("ref", d.ref_id); ("loop", d.loop_id); ("epoch", d.epoch) ]
  in
  if ctx <> [] then Format.fprintf ppf " [%s]" (String.concat ", " ctx)

let to_string d = Format.asprintf "%a" pp d

(* JSON emission follows Bench_json's hand-rolled style (flat documents,
   no external dependency) and uses its RFC 8259 string escaper. *)
let buf_string = Ccdp_core.Bench_json.buf_string

let buf_opt_int b key v =
  match v with
  | None -> ()
  | Some v -> Buffer.add_string b (Printf.sprintf ",\"%s\":%d" key v)

let buf b d =
  Buffer.add_string b "{\"code\":";
  buf_string b (code_string d.code);
  Buffer.add_string b ",\"severity\":";
  buf_string b (severity_string d.severity);
  Buffer.add_string b ",\"message\":";
  buf_string b d.message;
  (match d.loc with
  | Loc.Src { line; col } ->
      Buffer.add_string b (Printf.sprintf ",\"line\":%d,\"col\":%d" line col)
  | Loc.Synthetic -> ());
  buf_opt_int b "ref_id" d.ref_id;
  buf_opt_int b "loop_id" d.loop_id;
  buf_opt_int b "epoch" d.epoch;
  Buffer.add_char b '}'
