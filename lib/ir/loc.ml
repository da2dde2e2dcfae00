type t = Synthetic | Src of { line : int; col : int }

let src ~line ~col = Src { line; col }
let is_src = function Src _ -> true | Synthetic -> false

let line = function Src { line; _ } -> Some line | Synthetic -> None

let compare a b =
  match (a, b) with
  | Synthetic, Synthetic -> 0
  | Synthetic, Src _ -> 1 (* located diagnostics sort first *)
  | Src _, Synthetic -> -1
  | Src a, Src b ->
      let c = Stdlib.compare a.line b.line in
      if c <> 0 then c else Stdlib.compare a.col b.col

let pp ppf = function
  | Synthetic -> Format.pp_print_string ppf "<builder>"
  | Src { line; col } -> Format.fprintf ppf "%d:%d" line col
