type epoch = Par of Stmt.loop | Ser of Stmt.t list

type node =
  | E of int * epoch
  | Loop of Stmt.loop * node list
  | Branch of Stmt.cond * node list * node list

type t = { nodes : node list; count : int }

let rec contains_doall stmts =
  List.exists
    (fun s ->
      match s with
      | Stmt.For { kind = Stmt.Doall _; _ } -> true
      | Stmt.For { body; _ } -> contains_doall body
      | Stmt.If (_, t, e) -> contains_doall t || contains_doall e
      | Stmt.Critical { cbody; _ } -> contains_doall cbody
      | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Reduce _ -> false
      | Stmt.Call _ -> invalid_arg "Epoch.partition: program contains calls; inline first")
    stmts

let partition stmts =
  let counter = ref 0 in
  let fresh () = let id = !counter in incr counter; id in
  let rec walk stmts =
    let flush buf acc =
      match buf with [] -> acc | _ -> E (fresh (), Ser (List.rev buf)) :: acc
    in
    let buf, acc =
      List.fold_left
        (fun (buf, acc) s ->
          match s with
          | Stmt.For ({ kind = Stmt.Doall _; _ } as l) ->
              ([], E (fresh (), Par l) :: flush buf acc)
          | Stmt.For l when contains_doall l.body ->
              ([], Loop (l, walk l.body) :: flush buf acc)
          | Stmt.If (c, t, e) when contains_doall t || contains_doall e ->
              ([], Branch (c, walk t, walk e) :: flush buf acc)
          | Stmt.Call _ ->
              invalid_arg "Epoch.partition: program contains calls; inline first"
          | Stmt.Critical { cbody; _ } when contains_doall cbody ->
              invalid_arg "Epoch.partition: DOALL inside critical section"
          | Stmt.Assign _ | Stmt.Sassign _ | Stmt.For _ | Stmt.If _
          | Stmt.Critical _ | Stmt.Reduce _ ->
              (s :: buf, acc))
        ([], []) stmts
    in
    List.rev (flush buf acc)
  in
  let nodes = walk stmts in
  { nodes; count = !counter }

let all t =
  let rec collect acc nodes =
    List.fold_left
      (fun acc n ->
        match n with
        | E (id, e) -> (id, e) :: acc
        | Loop (_, body) -> collect acc body
        | Branch (_, a, b) -> collect (collect acc a) b)
      acc nodes
  in
  List.rev (collect [] t.nodes)

let rec pp_node ppf = function
  | E (id, Par l) ->
      Format.fprintf ppf "epoch %d: parallel doall %s (loop %d)" id l.Stmt.var
        l.Stmt.loop_id
  | E (id, Ser ss) -> Format.fprintf ppf "epoch %d: serial (%d stmts)" id (List.length ss)
  | Loop (l, body) ->
      Format.fprintf ppf "@[<v 2>serial loop %s {@,%a@]@,}" l.Stmt.var
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_node)
        body
  | Branch (_, t, e) ->
      Format.fprintf ppf "@[<v 2>branch {@,%a@]@,}%a"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_node) t
        (fun ppf e ->
          if e <> [] then
            Format.fprintf ppf "@[<v 2> else {@,%a@]@,}"
              (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_node) e)
        e

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_node)
    t.nodes
