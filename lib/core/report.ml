let table ppf ~title ~headers rows =
  List.iter
    (fun r ->
      if List.length r <> List.length headers then
        invalid_arg "Report.table: ragged row")
    rows;
  let widths =
    List.mapi
      (fun col h ->
        List.fold_left (fun acc r -> max acc (String.length (List.nth r col)))
          (String.length h) rows)
      headers
  in
  let pad w s = s ^ String.make (w - String.length s) ' ' in
  let line cells =
    String.concat "  " (List.map2 pad widths cells) |> String.trim
    |> fun s -> Format.fprintf ppf "%s@," s
  in
  Format.fprintf ppf "@[<v>%s@," title;
  line headers;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter line rows;
  Format.fprintf ppf "@]@."

let fpct v = Printf.sprintf "%.2f%%" v
let fx v = Printf.sprintf "%.2f" v
