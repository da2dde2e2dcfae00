exception Error of int * int * string

(* column 0 marks a whole-line (structural) failure *)
let fail ln fmt = Printf.ksprintf (fun m -> raise (Error (ln, 0, m))) fmt
let failc ln col fmt = Printf.ksprintf (fun m -> raise (Error (ln, col, m))) fmt

(* ------------------------------------------------------------------ *)
(* Lexer (per line)                                                    *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string  (** lower-cased *)
  | INT of int
  | FLOAT of float
  | REL of Stmt.cmp
  | SYM of char  (** ( ) , = + - * / : ! $ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '$'

let is_digit c = c >= '0' && c <= '9'

(* tokens carry their 1-based start column on the source line *)
let lex_line ln s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := (t, !i + 1) :: !toks in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '.' && !i + 3 < n && s.[!i + 3] = '.' then begin
      (* relational operator .XX. *)
      let op = String.uppercase_ascii (String.sub s (!i + 1) 2) in
      let rel =
        match op with
        | "LT" -> Stmt.Lt
        | "LE" -> Stmt.Le
        | "GT" -> Stmt.Gt
        | "GE" -> Stmt.Ge
        | "EQ" -> Stmt.Eq
        | "NE" -> Stmt.Ne
        | _ -> failc ln (!i + 1) "unknown relational operator .%s." op
      in
      push (REL rel);
      i := !i + 4
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit s.[!i + 1]) then begin
      let j = ref !i in
      let isfloat = ref false in
      while
        !j < n
        && (is_digit s.[!j]
           || (s.[!j] = '.' && not (!j + 3 < n && s.[!j + 3] = '.' && not (is_digit s.[!j + 1])))
           || s.[!j] = 'e' || s.[!j] = 'E'
           || ((s.[!j] = '+' || s.[!j] = '-')
              && !j > !i
              && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E')))
      do
        if not (is_digit s.[!j]) then isfloat := true;
        incr j
      done;
      let text = String.sub s !i (!j - !i) in
      (if !isfloat then
         match float_of_string_opt text with
         | Some f -> push (FLOAT f)
         | None -> failc ln (!i + 1) "bad number %s" text
       else
         match int_of_string_opt text with
         | Some k -> push (INT k)
         | None -> failc ln (!i + 1) "bad integer %s" text);
      i := !j
    end
    else if is_ident_char c && not (is_digit c) then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      push (IDENT (String.sub s !i (!j - !i)));
      i := !j
    end
    else
      match c with
      | '(' | ')' | ',' | '=' | '+' | '-' | '*' | '/' | ':' | '!' ->
          push (SYM c);
          incr i
      | _ -> failc ln (!i + 1) "unexpected character %C" c
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Token-stream helpers                                                *)
(* ------------------------------------------------------------------ *)

type stream = {
  mutable toks : (token * int) list;
  ln : int;
  mutable last : int;  (** column of the most recently consumed token *)
}

let stream ln toks = { toks; ln; last = 1 }
let peek st = match st.toks with [] -> None | (t, _) :: _ -> Some t

(* column the next error should point at: the pending token, or (at end of
   line) the last consumed one *)
let col st = match st.toks with (_, c) :: _ -> c | [] -> st.last

let advance st =
  match st.toks with
  | [] -> ()
  | (_, c) :: r ->
      st.last <- c;
      st.toks <- r

let fail_at st fmt =
  Printf.ksprintf (fun m -> raise (Error (st.ln, col st, m))) fmt

let expect_sym st c =
  match peek st with
  | Some (SYM x) when x = c -> advance st
  | _ -> fail_at st "expected '%c'" c

let expect_ident st =
  match peek st with
  | Some (IDENT x) -> advance st; x
  | _ -> fail_at st "expected identifier"

let low = String.lowercase_ascii

let expect_kw st kw =
  match peek st with
  | Some (IDENT x) when low x = kw -> advance st
  | _ -> fail_at st "expected %s" (String.uppercase_ascii kw)

let eat_sym st c =
  match peek st with
  | Some (SYM x) when x = c -> advance st; true
  | _ -> false

let at_end st = st.toks = []

(* ------------------------------------------------------------------ *)
(* Expression parsing                                                  *)
(* ------------------------------------------------------------------ *)

(* affine integer expressions: +, -, INT*expr / expr*INT, parentheses *)
let rec parse_affine st =
  let rec term () =
    match peek st with
    | Some (INT k) -> (
        advance st;
        match peek st with
        | Some (SYM '*') ->
            advance st;
            Affine.scale k (atom ())
        | _ -> Affine.const k)
    | _ -> (
        let a = atom () in
        match peek st with
        | Some (SYM '*') -> (
            advance st;
            match peek st with
            | Some (INT k) -> advance st; Affine.scale k a
            | _ -> fail_at st "affine expressions multiply by constants only")
        | _ -> a)
  and atom () =
    match peek st with
    | Some (IDENT v) -> advance st; Affine.var (low v)
    | Some (INT k) -> advance st; Affine.const k
    | Some (SYM '(') ->
        advance st;
        let e = parse_affine st in
        expect_sym st ')';
        e
    | Some (SYM '-') -> advance st; Affine.neg (atom ())
    | _ -> fail_at st "expected affine expression"
  in
  let rec more acc =
    match peek st with
    | Some (SYM '+') -> advance st; more (Affine.add acc (term ()))
    | Some (SYM '-') -> advance st; more (Affine.sub acc (term ()))
    | _ -> acc
  in
  let first =
    match peek st with
    | Some (SYM '-') -> advance st; Affine.neg (term ())
    | _ -> term ()
  in
  more first

type env = {
  arrays : (string, string) Hashtbl.t;  (** lower-case -> declared name *)
  params : (string, unit) Hashtbl.t;
  mutable loop_vars : string list;
  b : Builder.t;
}

(* float expressions *)
let rec parse_fexpr env st =
  let rec primary () =
    match peek st with
    | Some (FLOAT f) -> advance st; Fexpr.Const f
    | Some (INT k) -> advance st; Fexpr.Const (float_of_int k)
    | Some (SYM '(') ->
        advance st;
        let e = parse_fexpr env st in
        expect_sym st ')';
        e
    | Some (SYM '-') -> (
        advance st;
        (* fold negated literals: "-0.125" is a constant, not an operation *)
        match peek st with
        | Some (FLOAT f) -> advance st; Fexpr.Const (-.f)
        | Some (INT k) -> advance st; Fexpr.Const (float_of_int (-k))
        | _ -> Fexpr.Unop (Fexpr.Neg, primary ()))
    | Some (IDENT f0) when low f0 = "sqrt" || low f0 = "abs" ->
        let f = low f0 in
        advance st;
        expect_sym st '(';
        let e = parse_fexpr env st in
        expect_sym st ')';
        Fexpr.Unop ((if f = "sqrt" then Fexpr.Sqrt else Fexpr.Abs), e)
    | Some (IDENT f0) when low f0 = "min" || low f0 = "max" ->
        let f = low f0 in
        advance st;
        expect_sym st '(';
        let a = parse_fexpr env st in
        expect_sym st ',';
        let b = parse_fexpr env st in
        expect_sym st ')';
        Fexpr.Binop ((if f = "min" then Fexpr.Min else Fexpr.Max), a, b)
    | Some (IDENT v0) -> (
        let vcol = col st in
        advance st;
        let v = low v0 in
        match (Hashtbl.find_opt env.arrays v, peek st) with
        | Some name, Some (SYM '(') ->
            advance st;
            let subs = ref [ parse_affine st ] in
            while eat_sym st ',' do
              subs := parse_affine st :: !subs
            done;
            expect_sym st ')';
            Fexpr.Ref
              (Builder.ref_ env.b
                 ~loc:(Loc.src ~line:st.ln ~col:vcol)
                 name (List.rev !subs))
        | None, Some (SYM '(') -> fail_at st "%s is not a declared array" v0
        | _ ->
            if List.mem v env.loop_vars || Hashtbl.mem env.params v then
              Fexpr.Ivar v
            else Fexpr.Svar v)
    | _ -> fail_at st "expected expression"
  in
  let rec factor acc =
    match peek st with
    | Some (SYM '*') ->
        advance st;
        factor (Fexpr.Binop (Fexpr.Mul, acc, primary ()))
    | Some (SYM '/') ->
        advance st;
        factor (Fexpr.Binop (Fexpr.Div, acc, primary ()))
    | _ -> acc
  in
  let rec sum acc =
    match peek st with
    | Some (SYM '+') ->
        advance st;
        sum (Fexpr.Binop (Fexpr.Add, acc, factor (primary ())))
    | Some (SYM '-') ->
        advance st;
        sum (Fexpr.Binop (Fexpr.Sub, acc, factor (primary ())))
    | _ -> acc
  in
  sum (factor (primary ()))

(* ------------------------------------------------------------------ *)
(* Line classification                                                 *)
(* ------------------------------------------------------------------ *)

type line =
  | Lprogram of string
  | Lparameter of string * int
  | Lreal of string * int list
  | Lshared of string * Dist.t
  | Ldoshared of Stmt.sched
  | Ldo of string * Bound.t * Bound.t * int * Loc.t
  | Lenddo
  | Lif of Stmt.cond
  | Lelse
  | Lendif
  | Lassign_arr of string * Affine.t list * Fexpr.t * Loc.t
  | Lassign_sca of string * Fexpr.t
  | Lcritical of string * Loc.t
  | Lendcritical
  | Lreduction of string * Loc.t
  | Lend

let parse_bound st =
  let e = parse_affine st in
  match peek st with
  | Some (SYM '!') -> (
      advance st;
      match peek st with
      | Some (IDENT t) when low t = "runtime" -> advance st; Bound.opaque e
      | _ -> fail_at st "expected 'runtime' after '!'")
  | _ -> Bound.known e

let parse_dist st name =
  expect_sym st '(';
  let dims = ref [] in
  let dim () =
    expect_sym st ':';
    match peek st with
    | Some (IDENT t) when low t = "block" -> (
        advance st;
        match peek st with
        | Some (SYM '(') ->
            advance st;
            let w = match peek st with
              | Some (INT w) -> advance st; w
              | _ -> fail_at st "expected block width"
            in
            expect_sym st ')';
            Dist.Block_cyclic w
        | _ -> Dist.Block)
    | Some (IDENT t) when low t = "cyclic" -> advance st; Dist.Cyclic
    | _ -> Dist.Degenerate
  in
  dims := [ dim () ];
  while eat_sym st ',' do
    dims := dim () :: !dims
  done;
  expect_sym st ')';
  ignore name;
  Dist.Dims (Array.of_list (List.rev !dims))

let parse_cond env st =
  expect_sym st '(';
  (* decide affine vs float comparison by attempting affine first on a
     snapshot; the attempt only stands when every variable is an induction
     variable or parameter (a scalar comparison is a float comparison) *)
  let snapshot = st.toks and snapshot_last = st.last in
  let structural e =
    List.for_all
      (fun v -> List.mem v env.loop_vars || Hashtbl.mem env.params v)
      (Affine.vars e)
  in
  let icond =
    try
      let a = parse_affine st in
      match peek st with
      | Some (REL op) ->
          advance st;
          let b = parse_affine st in
          (match peek st with
          | Some (SYM ')') when structural a && structural b ->
              advance st;
              Some (Stmt.Icond (op, a, b))
          | _ -> None)
      | _ -> None
    with Error _ -> None
  in
  match icond with
  | Some c -> c
  | None ->
      st.toks <- snapshot;
      st.last <- snapshot_last;
      let a = parse_fexpr env st in
      let op =
        match peek st with
        | Some (REL op) -> advance st; op
        | _ -> fail_at st "expected relational operator"
      in
      let b = parse_fexpr env st in
      expect_sym st ')';
      Stmt.Fcond (op, a, b)

let classify env ln toks =
  let st = stream ln toks in
  match peek st with
  | None -> None
  | Some (IDENT t) when low t = "program" ->
      advance st;
      Some (Lprogram (low (expect_ident st)))
  | Some (IDENT t) when low t = "parameter" ->
      advance st;
      expect_sym st '(';
      let name = low (expect_ident st) in
      expect_sym st '=';
      let v = match peek st with
        | Some (INT v) -> advance st; v
        | Some (SYM '-') -> (
            advance st;
            match peek st with
            | Some (INT v) -> advance st; -v
            | _ -> fail_at st "expected integer")
        | _ -> fail_at st "expected integer"
      in
      expect_sym st ')';
      Some (Lparameter (name, v))
  | Some (IDENT t) when low t = "real" ->
      advance st;
      (* REAL*8 NAME(d1, d2, ...) *)
      expect_sym st '*';
      (match peek st with
      | Some (INT 8) -> advance st
      | _ -> fail_at st "expected REAL*8");
      let name = expect_ident st in
      expect_sym st '(';
      let dims = ref [] in
      let dim () =
        match peek st with
        | Some (INT d) when d >= 1 -> advance st; d
        | Some (INT _) -> fail_at st "array dimension must be at least 1"
        | _ -> fail_at st "expected dimension"
      in
      dims := [ dim () ];
      while eat_sym st ',' do
        dims := dim () :: !dims
      done;
      expect_sym st ')';
      Some (Lreal (name, List.rev !dims))
  | Some (IDENT t) when low t = "cdir$" -> (
      advance st;
      match peek st with
      | Some (IDENT d) when low d = "shared" ->
          advance st;
          let name = expect_ident st in
          Some (Lshared (name, parse_dist st name))
      | Some (IDENT d) when low d = "replicated" ->
          advance st;
          let name = expect_ident st in
          Some (Lshared (name, Dist.Replicated))
      | Some (IDENT d) when low d = "doshared" ->
          advance st;
          expect_sym st '(';
          ignore (expect_ident st);
          expect_sym st ')';
          let sched =
            if eat_sym st '!' then
              match peek st with
              | Some (IDENT t) when low t = "block" -> advance st; Stmt.Static_block
              | Some (IDENT t) when low t = "cyclic" -> advance st; Stmt.Static_cyclic
              | Some (IDENT t) when low t = "aligned" ->
                  advance st;
                  expect_sym st '(';
                  let e = match peek st with
                    | Some (INT e) -> advance st; e
                    | _ -> fail_at st "expected extent"
                  in
                  expect_sym st ')';
                  Stmt.Static_aligned e
              | Some (IDENT t) when low t = "dynamic" ->
                  advance st;
                  expect_sym st '(';
                  let c = match peek st with
                    | Some (INT c) -> advance st; c
                    | _ -> fail_at st "expected chunk"
                  in
                  expect_sym st ')';
                  Stmt.Dynamic c
              | _ -> fail_at st "unknown schedule"
            else Stmt.Static_block
          in
          Some (Ldoshared sched)
      | Some (IDENT d) when low d = "critical" ->
          let kwcol = col st in
          advance st;
          expect_sym st '(';
          let lk = low (expect_ident st) in
          expect_sym st ')';
          Some (Lcritical (lk, Loc.src ~line:ln ~col:kwcol))
      | Some (IDENT d) when low d = "endcritical" ->
          advance st;
          Some Lendcritical
      | Some (IDENT d) when low d = "reduction" ->
          let kwcol = col st in
          advance st;
          expect_sym st '(';
          let sv = low (expect_ident st) in
          expect_sym st ')';
          Some (Lreduction (sv, Loc.src ~line:ln ~col:kwcol))
      | _ -> fail_at st "unknown CDIR$ directive")
  | Some (IDENT t) when low t = "do" ->
      let kwcol = col st in
      advance st;
      let var = low (expect_ident st) in
      expect_sym st '=';
      let lo = parse_bound st in
      expect_sym st ',';
      let hi = parse_bound st in
      let step = if eat_sym st ',' then (
          match peek st with
          | Some (INT s) -> advance st; s
          | _ -> fail_at st "expected step")
        else 1
      in
      Some (Ldo (var, lo, hi, step, Loc.src ~line:ln ~col:kwcol))
  | Some (IDENT t) when low t = "enddo" -> Some Lenddo
  | Some (IDENT t) when low t = "if" ->
      advance st;
      let c = parse_cond env st in
      expect_kw st "then";
      Some (Lif c)
  | Some (IDENT t) when low t = "else" -> Some Lelse
  | Some (IDENT t) when low t = "endif" -> Some Lendif
  | Some (IDENT t) when low t = "end" -> Some Lend
  | Some (IDENT v0) -> (
      let vcol = col st in
      advance st;
      let v = low v0 in
      match (Hashtbl.find_opt env.arrays v, peek st) with
      | Some name, Some (SYM '(') ->
          advance st;
          let subs = ref [ parse_affine st ] in
          while eat_sym st ',' do
            subs := parse_affine st :: !subs
          done;
          expect_sym st ')';
          expect_sym st '=';
          let e = parse_fexpr env st in
          if not (at_end st) then fail_at st "trailing tokens after assignment";
          Some (Lassign_arr (name, List.rev !subs, e, Loc.src ~line:ln ~col:vcol))
      | _, Some (SYM '=') ->
          advance st;
          let e = parse_fexpr env st in
          if not (at_end st) then fail_at st "trailing tokens after assignment";
          Some (Lassign_sca (v, e))
      | _ -> fail_at st "cannot parse statement starting with %s" v0)
  | Some _ -> fail_at st "cannot parse line"

(* ------------------------------------------------------------------ *)
(* Program assembly                                                    *)
(* ------------------------------------------------------------------ *)

(* a line is a comment when it starts with C but is neither a CDIR$
   directive nor a real statement: emit produces "C", "C     text" and
   "C$CCDP ..." comments *)
let is_comment s =
  String.length s > 0
  && (s.[0] = 'c' || s.[0] = 'C')
  && (String.length s = 1 || s.[1] = ' ' || s.[1] = '$' || s.[1] = '\t')
  && not
       (String.length s >= 5
       && String.lowercase_ascii (String.sub s 0 5) = "cdir$")

let starts_with_kw line kw =
  let l = String.lowercase_ascii line in
  let k = String.length kw in
  String.length l >= k
  && String.sub l 0 k = kw
  && (String.length l = k || not (is_ident_char l.[k]))

let program src =
  let raw = String.split_on_char '\n' src in
  let b = Builder.create ~name:"parsed" () in
  let env =
    { arrays = Hashtbl.create 16; params = Hashtbl.create 8; loop_vars = []; b }
  in
  (* first pass handles declarations only (they precede the body in the
     emit format); body lines are kept as raw tokens and classified during
     block assembly, when loop-variable scopes are known (identifier
     resolution into induction variables vs task scalars depends on it) *)
  let dists : (string, Dist.t) Hashtbl.t = Hashtbl.create 8 in
  let decls : (string * int list) list ref = ref [] in
  let body_lines : (int * (token * int) list) list ref = ref [] in
  let name = ref "parsed" in
  List.iteri
    (fun k line ->
      let ln = k + 1 in
      let trimmed = String.trim line in
      if trimmed = "" || is_comment trimmed then ()
      else if
        starts_with_kw trimmed "program" || starts_with_kw trimmed "parameter"
        || starts_with_kw trimmed "real"
        || (String.length trimmed >= 5
           && String.lowercase_ascii (String.sub trimmed 0 5) = "cdir$"
           &&
           let dir =
             String.trim (String.sub trimmed 5 (String.length trimmed - 5))
           in
           (* doshared/critical/reduction directives belong to the body *)
           not
             (starts_with_kw dir "doshared"
             || starts_with_kw dir "critical"
             || starts_with_kw dir "endcritical"
             || starts_with_kw dir "reduction"))
      then
        match classify env ln (lex_line ln line) with
        | Some (Lprogram n) -> name := n
        | Some (Lparameter (p, v)) ->
            Hashtbl.replace env.params p ();
            Builder.param b p v
        | Some (Lreal (nm, dims)) ->
            Hashtbl.replace env.arrays (low nm) nm;
            decls := (nm, dims) :: !decls
        | Some (Lshared (nm, d)) -> Hashtbl.replace dists (low nm) d
        | _ -> fail ln "expected a declaration"
      else body_lines := (ln, lex_line ln line) :: !body_lines)
    raw;
  (* declare arrays now that dists are known: a directive means shared *)
  List.iter
    (fun (nm, dims) ->
      match Hashtbl.find_opt dists (low nm) with
      | Some Dist.Replicated ->
          Builder.array_ b nm (Array.of_list dims) ~dist:Dist.replicated
      | Some d -> Builder.array_ b nm (Array.of_list dims) ~dist:d
      | None -> Builder.array_ b nm (Array.of_list dims) ~shared:false)
    (List.rev !decls);
  (* second pass over body lines: classify lazily and build the tree *)
  let lines = List.rev !body_lines in
  let rec parse_block lines ~pending_sched =
    match lines with
    | [] -> ([], [], None)
    | (ln, toks) :: rest -> (
        let item =
          match classify env ln toks with
          | Some i -> i
          | None -> fail ln "empty statement"
        in
        match item with
        | Lend | Lenddo | Lendif | Lelse | Lendcritical ->
            ([], rest, Some item)
        | Ldoshared sched -> parse_block rest ~pending_sched:(Some sched)
        | Ldo (var, lo, hi, step, loc) ->
            env.loop_vars <- var :: env.loop_vars;
            let body, rest', term = parse_block rest ~pending_sched:None in
            env.loop_vars <- List.tl env.loop_vars;
            (match term with
            | Some Lenddo -> ()
            | _ -> fail ln "DO without matching ENDDO");
            let kind =
              match pending_sched with
              | Some s -> Stmt.Doall s
              | None -> Stmt.Serial
            in
            let stmt = Builder.for_ b ~step ~kind ~loc var lo hi body in
            let more, rest'', term' = parse_block rest' ~pending_sched:None in
            (stmt :: more, rest'', term')
        | Lif c ->
            let tb, rest', term = parse_block rest ~pending_sched:None in
            let eb, rest'', term'' =
              match term with
              | Some Lelse ->
                  let eb, r, t = parse_block rest' ~pending_sched:None in
                  (eb, r, t)
              | other -> ([], rest', other)
            in
            (match term'' with
            | Some Lendif -> ()
            | _ -> fail ln "IF without matching ENDIF");
            let more, rest3, term3 = parse_block rest'' ~pending_sched:None in
            (Stmt.If (c, tb, eb) :: more, rest3, term3)
        | Lassign_arr (nm, subs, e, loc) ->
            let stmt = Builder.assign b ~loc nm subs e in
            let more, rest', term = parse_block rest ~pending_sched:None in
            (stmt :: more, rest', term)
        | Lassign_sca (v, e) ->
            let more, rest', term = parse_block rest ~pending_sched:None in
            (Stmt.Sassign (v, e) :: more, rest', term)
        | Lcritical (lk, loc) ->
            let body, rest', term = parse_block rest ~pending_sched:None in
            (match term with
            | Some Lendcritical -> ()
            | _ -> fail ln "CRITICAL without matching ENDCRITICAL");
            let stmt = Builder.critical ~loc lk body in
            let more, rest'', term' = parse_block rest' ~pending_sched:None in
            (stmt :: more, rest'', term')
        | Lreduction (sv, loc) -> (
            (* the directive names the reduction variable; the next line
               must be the recognized update s = s op e (or s = MIN(s, e) /
               MAX), whose operator the parser infers from the statement
               shape *)
            match rest with
            | [] -> fail ln "REDUCTION directive without a following update"
            | (ln2, toks2) :: rest2 -> (
                match classify env ln2 toks2 with
                | Some (Lassign_sca (v, Fexpr.Binop (op, Fexpr.Svar v', e)))
                  when String.equal v sv && String.equal v' sv ->
                    let stmt = Builder.reduce ~loc op sv e in
                    let more, rest', term =
                      parse_block rest2 ~pending_sched:None
                    in
                    (stmt :: more, rest', term)
                | _ ->
                    let s = String.uppercase_ascii sv in
                    fail ln2
                      "REDUCTION(%s) must be followed by an update of the \
                       form %s = %s op expr (or %s = MIN(%s, expr) / MAX)"
                      s s s s s))
        | Lprogram _ | Lparameter _ | Lreal _ | Lshared _ ->
            fail ln "declaration after the body began")
  in
  let stmts, _, term = parse_block lines ~pending_sched:None in
  (match term with
  | Some Lend | None -> ()
  | Some _ -> fail 0 "unbalanced block structure");
  let p = Builder.finish b stmts in
  { p with Program.name = !name }

let file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  program s
