module Pipeline = Ccdp_core.Pipeline

let maystale (t : Pipeline.t) =
  Maystale.derive ~cluster_pes:t.Pipeline.cluster_pes t.Pipeline.region
    t.Pipeline.epochs t.Pipeline.infos

let coverage (t : Pipeline.t) =
  Coverage.check ~plan:t.Pipeline.plan ~maystale:(maystale t)
    ~prefetch_clean:t.Pipeline.prefetch_clean t.Pipeline.infos

let races (t : Pipeline.t) =
  Race.check ~params:t.Pipeline.program.Ccdp_ir.Program.params
    t.Pipeline.epochs

let lints (t : Pipeline.t) =
  Lint.check ~region:t.Pipeline.region ~cfg:t.Pipeline.cfg
    ~tuning:t.Pipeline.tuning ~plan:t.Pipeline.plan t.Pipeline.infos

let certify t = List.sort Diag.compare (coverage t @ races t @ lints t)

let errors ds = List.filter (fun d -> d.Diag.severity = Diag.Error) ds
let has_errors ds = List.exists (fun d -> d.Diag.severity = Diag.Error) ds

type report = { name : string; diags : Diag.t list }

let pp_report ppf r =
  match r.diags with
  | [] -> Format.fprintf ppf "%s: clean" r.name
  | ds ->
      Format.fprintf ppf "@[<v>%s: %d diagnostic(s)" r.name (List.length ds);
      List.iter (fun d -> Format.fprintf ppf "@,  %a" Diag.pp d) ds;
      Format.fprintf ppf "@]"

let json reports =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"version\":1,\"targets\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      Ccdp_core.Bench_json.buf_string b r.name;
      Buffer.add_string b ",\"diagnostics\":[";
      List.iteri
        (fun j d ->
          if j > 0 then Buffer.add_char b ',';
          Diag.buf b d)
        r.diags;
      Buffer.add_string b "]}")
    reports;
  let count sev =
    List.fold_left
      (fun acc r ->
        acc
        + List.length (List.filter (fun d -> d.Diag.severity = sev) r.diags))
      0 reports
  in
  Buffer.add_string b
    (Printf.sprintf "],\"summary\":{\"errors\":%d,\"warnings\":%d}}"
       (count Diag.Error) (count Diag.Warning));
  Buffer.contents b
