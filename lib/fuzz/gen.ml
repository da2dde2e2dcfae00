open Ccdp_ir
module Net = Ccdp_machine.Net
module B = Builder
module F = Builder.F

type sched = Block | Aligned | Cyclic | Dynamic of int

type stmt_desc = {
  dst : int;
  doi : int;
  reads : (int * int * int) list;
  guarded : bool;
}

(* Commutative-associative reduction operators the generator draws; Add
   stays exact because every generated value is a small dyadic (powers of
   two times small integers), Min/Max are order-independent outright. *)
type rop = Radd | Rmin | Rmax

type epoch_desc =
  | Par of {
      sched : sched;
      lo1 : bool;
      opaque_hi : bool;
      stmts : stmt_desc list;
    }
  | Sweep of { src : int; col : int; dst : int }
  | Lock of {
      sched : sched;  (** Block or Cyclic (varies PE contribution order) *)
      src : int;
      dst : int;  (** forced distinct from [src] by [sanitize_epoch] *)
      col : int;
      col2 : int;
      fused : bool;  (** both accumulator cells under one lock *)
    }
      (** every task folds a column entry into two fixed accumulator cells
          [dst(0,col)] and [dst(1,col2)] inside critical sections — the
          cross-PE conflict lock-domination must discharge, and the
          in-critical accumulator reads are the acquire-frontier staleness
          obligation *)
  | Red of { sched : sched; op : rop; src : int; dst : int; seed : bool }
      (** a recognized [rs = rs op src(i,j)] reduction over the whole
          array, consumed by a serial write into [dst(0,1)]; [seed] binds
          [rs] before the DOALL (otherwise the first contribution seeds) *)

type desc = {
  n : int;
  dist_dim : int;
  n_pes : int;
  net : Net.kind;
  pclean : bool;
  epochs : epoch_desc list;
  wrap : bool;
}

let array_names = [ "A0"; "A1"; "A2" ]
let n_arrays = List.length array_names

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let int_range rng lo hi = lo + Random.State.int rng (hi - lo + 1)
let pick rng l = List.nth l (Random.State.int rng (List.length l))

let gen_stmt rng =
  let dst = int_range rng 0 (n_arrays - 1) in
  let doi = int_range rng (-1) 1 in
  let guarded = int_range rng 0 3 = 0 in
  let nreads = int_range rng 1 3 in
  let reads =
    List.init nreads (fun _ ->
        (int_range rng 0 (n_arrays - 1), int_range rng (-1) 1, int_range rng (-1) 1))
  in
  { dst; doi; reads; guarded }

let gen_epoch rng n =
  match int_range rng 0 9 with
  | 0 | 1 ->
      Sweep
        {
          src = int_range rng 0 (n_arrays - 1);
          col = int_range rng 1 (n - 2);
          dst = int_range rng 0 (n_arrays - 1);
        }
  | 2 | 3 ->
      let src = int_range rng 0 (n_arrays - 1) in
      Lock
        {
          sched = (if Random.State.bool rng then Block else Cyclic);
          src;
          dst = (src + 1 + int_range rng 0 (n_arrays - 2)) mod n_arrays;
          col = int_range rng 0 (n - 1);
          col2 = int_range rng 0 (n - 1);
          fused = Random.State.bool rng;
        }
  | 4 ->
      Red
        {
          sched = (if Random.State.bool rng then Block else Cyclic);
          op = pick rng [ Radd; Radd; Rmin; Rmax ];
          src = int_range rng 0 (n_arrays - 1);
          dst = int_range rng 0 (n_arrays - 1);
          seed = Random.State.bool rng;
        }
  | _ ->
      let sched =
        match int_range rng 0 3 with
        | 0 -> Block
        | 1 -> Aligned
        | 2 -> Cyclic
        | _ -> Dynamic (pick rng [ 1; 2; 3 ])
      in
      Par
        {
          sched;
          lo1 = Random.State.bool rng;
          opaque_hi = int_range rng 0 3 = 0;
          stmts = List.init (int_range rng 1 2) (fun _ -> gen_stmt rng);
        }

let generate rng =
  let n = pick rng [ 8; 12; 16 ] in
  {
    n;
    dist_dim = int_range rng 0 1;
    n_pes = pick rng [ 2; 3; 4; 8 ];
    net =
      (* uniform half the time; each geometry gets an even share of the rest *)
      pick rng
        [ Net.Uniform; Net.Uniform; Net.Uniform;
          Net.Torus3d; Net.Mesh2d; Net.Crossbar ];
    pclean = Random.State.bool rng;
    epochs = List.init (int_range rng 2 4) (fun _ -> gen_epoch rng n);
    wrap = Random.State.bool rng;
  }

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* Race-freedom discipline per parallel epoch: an array is either only
   read or only written, and writes stay within the task's own DOALL
   column. Reads of written arrays are dropped; when every array is
   written the statement degenerates to a constant store. *)
let sanitize_epoch e =
  match e with
  | Sweep _ | Red _ -> e
  | Lock l ->
      (* the accumulator array must not double as the contribution source:
         a mid-epoch read of a cell other tasks are accumulating into
         would observe an order-dependent partial sum *)
      if l.dst = l.src then Lock { l with dst = (l.src + 1) mod n_arrays }
      else e
  | Par p ->
      let written = List.map (fun s -> s.dst) p.stmts in
      let stmts =
        List.map
          (fun s ->
            let ok (a, _, _) = not (List.mem a written) in
            let reads = List.filter ok s.reads in
            let reads =
              if reads <> [] then reads
              else List.filter ok [ ((s.dst + 1) mod n_arrays, 0, 0) ]
            in
            { s with reads })
          p.stmts
      in
      Par { p with stmts }

let build (d : desc) =
  let n = d.n in
  let b = B.create ~name:"fuzz" () in
  B.param b "n" n;
  let dist = Dist.block_along ~rank:2 ~dim:d.dist_dim in
  List.iter (fun a -> B.array_ b a [| n; n |] ~dist) array_names;
  let open B.A in
  let arr k = List.nth array_names k in
  let init =
    (* deterministic full initialization of every array *)
    B.doall b "j" (bc 0) (bc (n - 1))
      [
        B.for_ b "i" (bc 0)
          (bc (n - 1))
          (List.mapi
             (fun k a ->
               B.assign b a
                 [ v "i"; v "j" ]
                 F.(
                   (iv "i" * const (0.25 +. (0.125 *. float_of_int k)))
                   - (iv "j" * const 0.0625)))
             array_names);
      ]
  in
  let mk_epoch e =
    match sanitize_epoch e with
    | Lock { sched; src; dst; col; col2; fused } ->
        let sched =
          match sched with
          | Cyclic -> Stmt.Static_cyclic
          | Block | Aligned | Dynamic _ -> Stmt.Static_block
        in
        let l2 = if fused then "l0" else "l1" in
        let acc row col lk scale =
          B.critical lk
            [
              B.assign b (arr dst)
                [ c row; c col ]
                F.(
                  B.rd b (arr dst) [ c row; c col ]
                  + (B.rd b (arr src) [ v "j"; c col ] * const scale));
            ]
        in
        [
          B.doall b ~sched "j" (bc 0)
            (bc (n - 1))
            [ acc 0 col "l0" 0.0625; acc 1 col2 l2 0.03125 ];
        ]
    | Red { sched; op; src; dst; seed } ->
        let sched =
          match sched with
          | Cyclic -> Stmt.Static_cyclic
          | Block | Aligned | Dynamic _ -> Stmt.Static_block
        in
        let fop =
          match op with
          | Radd -> Fexpr.Add
          | Rmin -> Fexpr.Min
          | Rmax -> Fexpr.Max
        in
        (if seed then [ Stmt.Sassign ("rs", F.const 0.5) ] else [])
        @ [
            B.doall b ~sched "j" (bc 0)
              (bc (n - 1))
              [
                B.for_ b "i" (bc 0)
                  (bc (n - 1))
                  [
                    B.reduce fop "rs"
                      F.(B.rd b (arr src) [ v "i"; v "j" ] * const 0.0625);
                  ];
              ];
            B.assign b (arr dst) [ c 0; c 1 ] F.(sv "rs" * const 0.5);
          ]
    | Sweep { src; col; dst } ->
        [
          Stmt.Sassign ("acc", F.const 0.0);
          B.for_ b "k" (bc 1)
            (bc (n - 2))
            [
              Stmt.Sassign
                ("acc", F.(sv "acc" + B.rd b (arr src) [ v "k"; c col ]));
            ];
          B.assign b (arr dst) [ c 0; c 0 ] F.(sv "acc" * const 0.03125);
        ]
    | Par { sched; lo1; opaque_hi; stmts } ->
        let sched =
          match sched with
          | Block -> Stmt.Static_block
          | Aligned -> Stmt.Static_aligned n
          | Cyclic -> Stmt.Static_cyclic
          | Dynamic c -> Stmt.Dynamic c
        in
        let lo = if lo1 then 1 else 0 and hi = if lo1 then n - 2 else n - 1 in
        let hi_bound =
          if opaque_hi then Bound.opaque (Affine.const hi) else bc hi
        in
        (* stencil offsets are only safe on the clipped sub-range *)
        let clip o = if lo1 then o else 0 in
        [
          B.doall b ~sched "j" (bc lo) hi_bound
            [
              B.for_ b "i" (bc lo) (bc hi)
                (List.map
                   (fun s ->
                     let rhs =
                       List.fold_left
                         (fun acc (a, oi, oj) ->
                           F.(
                             acc
                             + B.rd b (arr a)
                                 [ v "i" +! c (clip oi); v "j" +! c (clip oj) ]))
                         (F.const 0.5) s.reads
                     in
                     let assign =
                       B.assign b (arr s.dst)
                         [ v "i" +! c (clip s.doi); v "j" ]
                         F.(rhs * const 0.125)
                     in
                     if s.guarded then
                       (* structural guard: the analyses must treat both
                          branches as possible; the else branch writes the
                          same element so the write-set stays race-free *)
                       Stmt.If
                         ( Stmt.Icond (Stmt.Lt, v "i", c ((n / 2) + lo)),
                           [ assign ],
                           [
                             B.assign b (arr s.dst)
                               [ v "i" +! c (clip s.doi); v "j" ]
                               (F.const 0.25);
                           ] )
                     else assign)
                   stmts);
            ];
        ]
  in
  let body = List.concat_map mk_epoch d.epochs in
  let main =
    if d.wrap then [ init; B.for_ b "t" (bc 1) (bc 2) body ] else init :: body
  in
  B.finish b main

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(* every reference whose subscript ranges resolve must stay inside its
   array's extents; opaque-bound loops widen to unknown and are skipped
   (the interpreter still bounds-checks those at run time) *)
let subscript_problems (p : Program.t) =
  let problems = ref [] in
  let check_ref env (r : Reference.t) =
    match Program.find_array_opt p r.Reference.array_name with
    | None -> ()
    | Some decl ->
        Array.iteri
          (fun k e ->
            match Ccdp_analysis.Iterspace.affine_range env e with
            | None -> ()
            | Some (lo, hi) ->
                let extent = decl.Array_decl.dims.(k) in
                if lo < 0 || hi >= extent then
                  problems :=
                    Printf.sprintf
                      "reference %d of %s: dimension %d spans [%d, %d] outside \
                       [0, %d)"
                      r.Reference.id r.Reference.array_name k lo hi extent
                    :: !problems)
          r.Reference.subs
  in
  let rec walk loops stmts =
    let env = Ccdp_analysis.Iterspace.of_loops ~params:p.Program.params loops in
    List.iter
      (fun s ->
        (match Stmt.direct_write s with
        | Some r -> check_ref env r
        | None -> ());
        List.iter (check_ref env) (Stmt.direct_reads s);
        match s with
        | Stmt.For l -> walk (loops @ [ l ]) l.Stmt.body
        | Stmt.If (_, a, b) ->
            walk loops a;
            walk loops b
        | Stmt.Critical cr -> walk loops cr.Stmt.cbody
        | Stmt.Assign _ | Stmt.Sassign _ | Stmt.Reduce _ | Stmt.Call _ -> ())
      stmts
  in
  walk [] p.Program.main;
  List.rev !problems

let validate (d : desc) =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let in_arrays k = 0 <= k && k < n_arrays in
  let small o = -1 <= o && o <= 1 in
  let check_epoch i e =
    match e with
    | Lock { src; dst; col; col2; _ } ->
        if not (in_arrays src && in_arrays dst) then
          err "epoch %d: lock array index out of range" i
        else if col < 0 || col >= d.n || col2 < 0 || col2 >= d.n then
          err "epoch %d: lock accumulator column outside [0, %d)" i d.n
        else Ok ()
    | Red { src; dst; _ } ->
        if not (in_arrays src && in_arrays dst) then
          err "epoch %d: reduction array index out of range" i
        else Ok ()
    | Sweep { src; col; dst } ->
        if not (in_arrays src && in_arrays dst) then
          err "epoch %d: sweep array index out of range" i
        else if col < 0 || col >= d.n then
          err "epoch %d: sweep column %d outside [0, %d)" i col d.n
        else Ok ()
    | Par { stmts; _ } ->
        if stmts = [] then err "epoch %d: empty parallel epoch" i
        else
          List.fold_left
            (fun acc (s : stmt_desc) ->
              match acc with
              | Error _ -> acc
              | Ok () ->
                  if not (in_arrays s.dst) then
                    err "epoch %d: write array index %d out of range" i s.dst
                  else if not (small s.doi) then
                    err "epoch %d: write row offset %d outside [-1, 1]" i s.doi
                  else if
                    not
                      (List.for_all
                         (fun (a, oi, oj) ->
                           in_arrays a && small oi && small oj)
                         s.reads)
                  then err "epoch %d: read descriptor out of range" i
                  else Ok ())
            (Ok ()) stmts
  in
  let rec check_epochs i = function
    | [] -> Ok ()
    | e :: rest -> (
        match check_epoch i e with
        | Error _ as r -> r
        | Ok () -> check_epochs (i + 1) rest)
  in
  if d.n < 4 then err "array edge %d too small (minimum 4)" d.n
  else if d.dist_dim <> 0 && d.dist_dim <> 1 then
    err "distributed dimension %d not in {0, 1}" d.dist_dim
  else if d.n_pes < 1 then err "PE count %d < 1" d.n_pes
  else if d.epochs = [] then err "no epochs"
  else
    match check_epochs 0 d.epochs with
    | Error _ as r -> r
    | Ok () -> (
        let p = build d in
        match Program.validate p @ subscript_problems p with
        | [] -> Ok ()
        | probs -> Error (String.concat "; " probs))

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_sched ppf = function
  | Block -> Format.fprintf ppf "block"
  | Aligned -> Format.fprintf ppf "aligned"
  | Cyclic -> Format.fprintf ppf "cyclic"
  | Dynamic c -> Format.fprintf ppf "dynamic(%d)" c

let pp_rop ppf = function
  | Radd -> Format.fprintf ppf "add"
  | Rmin -> Format.fprintf ppf "min"
  | Rmax -> Format.fprintf ppf "max"

let pp_epoch ppf = function
  | Lock { sched; src; dst; col; col2; fused } ->
      Format.fprintf ppf "lock %a %s(0,%d),%s(1,%d) += %s%s" pp_sched sched
        (List.nth array_names dst)
        col
        (List.nth array_names dst)
        col2
        (List.nth array_names src)
        (if fused then " fused" else "")
  | Red { sched; op; src; dst; seed } ->
      Format.fprintf ppf "red %a %a over %s -> %s%s" pp_sched sched pp_rop op
        (List.nth array_names src)
        (List.nth array_names dst)
        (if seed then " seeded" else "")
  | Sweep { src; col; dst } ->
      Format.fprintf ppf "sweep %s(:,%d) -> %s" (List.nth array_names src) col
        (List.nth array_names dst)
  | Par { sched; lo1; opaque_hi; stmts } ->
      Format.fprintf ppf "par %a%s%s:" pp_sched sched
        (if lo1 then " lo1" else "")
        (if opaque_hi then " opaque-hi" else "");
      List.iter
        (fun s ->
          Format.fprintf ppf "@,    %s[i%+d,j] <- %s%s"
            (List.nth array_names s.dst) s.doi
            (String.concat " + "
               (List.map
                  (fun (a, oi, oj) ->
                    Printf.sprintf "%s[i%+d,j%+d]" (List.nth array_names a) oi
                      oj)
                  s.reads))
            (if s.guarded then "  (guarded)" else ""))
        stmts

let pp ppf d =
  Format.fprintf ppf
    "@[<v>n=%d dist_dim=%d pes=%d%s%s%s@,%a@]" d.n d.dist_dim d.n_pes
    (if d.net = Net.Uniform then "" else " " ^ Net.kind_name d.net)
    (if d.pclean then " prefetch-clean" else "")
    (if d.wrap then " wrapped(x2)" else "")
    (Format.pp_print_list pp_epoch)
    d.epochs
