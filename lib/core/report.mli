(** Plain-text table rendering for the experiment reports. *)

(** [table ppf ~title ~headers rows] prints an aligned table; every row must
    have [List.length headers] cells. *)
val table :
  Format.formatter -> title:string -> headers:string list -> string list list ->
  unit

val fpct : float -> string
val fx : float -> string
