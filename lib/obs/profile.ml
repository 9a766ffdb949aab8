open Sandtable

let file = "profile.json"

(* Per-depth discovery histogram row. [dr_generated] counts successor
   edges (event <> None); roots are discovered, not generated, and are
   kept apart so the reconciliation identity
     distinct = roots + generated - duplicates
   holds exactly against the engine counters. *)
type drow = {
  mutable dr_roots : int;
  mutable dr_generated : int;
  mutable dr_dup : int;
  mutable dr_sym : int;
}

type krow = { mutable kr_exp : int; mutable kr_dup : int }

(* One state per worker, touched only by that worker's domain (same
   discipline as [Metrics.collector]): no locks on the per-edge path. *)
type wstate = {
  mutable ws_depths : drow array;
  mutable ws_len : int;  (* depths [0 .. ws_len-1] are live *)
  ws_kinds : (int, krow) Hashtbl.t;
  mutable ws_edges : int;
}

type t = { ws : wstate array }

let fresh_drow () = { dr_roots = 0; dr_generated = 0; dr_dup = 0; dr_sym = 0 }

let create ~workers =
  { ws =
      Array.init (max 1 workers) (fun _ ->
          { ws_depths = Array.init 16 (fun _ -> fresh_drow ());
            ws_len = 0;
            ws_kinds = Hashtbl.create 32;
            ws_edges = 0 }) }

(* Attribution keys pack (tag, a, b) into one int so the per-edge hot path
   hashes an immediate. Nodes are stored 1-based ([0] = "not a node", used
   by kind-level keys); real node counts are tiny, the 8-bit clamp is pure
   defence. *)
let pack tag a b = (tag lsl 16) lor (min a 255 lsl 8) lor min b 255

let key_of_event = function
  | Trace.Deliver { src; dst; _ } -> pack 0 (src + 1) (dst + 1)
  | Trace.Timeout { node; _ } -> pack 1 (node + 1) 0
  | Trace.Client { node; _ } -> pack 2 (node + 1) 0
  | Trace.Crash { node } -> pack 3 (node + 1) 0
  | Trace.Restart { node } -> pack 4 (node + 1) 0
  | Trace.Partition { group } -> pack 5 (List.length group) 0
  | Trace.Heal -> pack 6 0 0
  | Trace.Drop { src; dst; _ } -> pack 7 (src + 1) (dst + 1)
  | Trace.Duplicate { src; dst; _ } -> pack 8 (src + 1) (dst + 1)

let kind_name tag =
  match tag with
  | 0 -> "deliver"
  | 1 -> "timeout"
  | 2 -> "client"
  | 3 -> "crash"
  | 4 -> "restart"
  | 5 -> "partition"
  | 6 -> "heal"
  | 7 -> "drop"
  | 8 -> "duplicate"
  | _ -> "?"

let key_name key =
  let tag = key lsr 16 and a = (key lsr 8) land 0xff and b = key land 0xff in
  match tag with
  | 0 | 7 | 8 ->
    Printf.sprintf "%s %s>%s" (kind_name tag)
      (Trace.node_name (a - 1))
      (Trace.node_name (b - 1))
  | 1 | 2 | 3 | 4 -> Printf.sprintf "%s %s" (kind_name tag) (Trace.node_name (a - 1))
  | 5 -> Printf.sprintf "partition[%d]" a
  | _ -> kind_name tag

let drow_at w depth =
  let n = Array.length w.ws_depths in
  if depth >= n then begin
    let grown =
      Array.init (max (depth + 1) (2 * n)) (fun i ->
          if i < n then w.ws_depths.(i) else fresh_drow ())
    in
    w.ws_depths <- grown
  end;
  if depth >= w.ws_len then w.ws_len <- depth + 1;
  w.ws_depths.(depth)

let edge t ~worker ~depth ~event ~dup ~sym =
  let w = t.ws.(if worker >= 0 && worker < Array.length t.ws then worker else 0) in
  let depth = max 0 depth in
  let row = drow_at w depth in
  w.ws_edges <- w.ws_edges + 1;
  if sym then row.dr_sym <- row.dr_sym + 1;
  match event with
  | None ->
    row.dr_roots <- row.dr_roots + 1;
    if dup then row.dr_dup <- row.dr_dup + 1
  | Some ev ->
    row.dr_generated <- row.dr_generated + 1;
    if dup then row.dr_dup <- row.dr_dup + 1;
    let key = key_of_event ev in
    let kr =
      match Hashtbl.find_opt w.ws_kinds key with
      | Some kr -> kr
      | None ->
        let kr = { kr_exp = 0; kr_dup = 0 } in
        Hashtbl.replace w.ws_kinds key kr;
        kr
    in
    kr.kr_exp <- kr.kr_exp + 1;
    if dup then kr.kr_dup <- kr.kr_dup + 1

type depth_row = {
  pd_depth : int;
  pd_roots : int;
  pd_generated : int;
  pd_duplicates : int;
  pd_sym : int;
}

type event_row = {
  pe_key : string;
  pe_kind : string;
  pe_expansions : int;
  pe_duplicates : int;
}

type summary = {
  p_roots : int;
  p_generated : int;
  p_distinct : int;
  p_duplicates : int;
  p_by_depth : depth_row list;
  p_by_event : event_row list;
  p_dup_top_source : string option;
  p_worker_edges : int list;
  p_peak_worker_skew_pct : float;
}

(* Deterministic merge: sums commute, and both output families are sorted
   (depth ascending, packed key ascending) — the summary is independent of
   domain scheduling, and for the deterministic engines of the worker
   count itself. *)
let summarize t =
  let max_len = Array.fold_left (fun acc w -> max acc w.ws_len) 0 t.ws in
  let by_depth =
    List.init max_len (fun d ->
        let row =
          { pd_depth = d; pd_roots = 0; pd_generated = 0; pd_duplicates = 0;
            pd_sym = 0 }
        in
        Array.fold_left
          (fun row w ->
            if d < w.ws_len then
              let r = w.ws_depths.(d) in
              { row with
                pd_roots = row.pd_roots + r.dr_roots;
                pd_generated = row.pd_generated + r.dr_generated;
                pd_duplicates = row.pd_duplicates + r.dr_dup;
                pd_sym = row.pd_sym + r.dr_sym }
            else row)
          row t.ws)
  in
  let kinds : (int, krow) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun w ->
      Hashtbl.iter
        (fun key kr ->
          match Hashtbl.find_opt kinds key with
          | Some acc ->
            acc.kr_exp <- acc.kr_exp + kr.kr_exp;
            acc.kr_dup <- acc.kr_dup + kr.kr_dup
          | None ->
            Hashtbl.replace kinds key { kr_exp = kr.kr_exp; kr_dup = kr.kr_dup })
        w.ws_kinds)
    t.ws;
  let by_event =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (key, kr) ->
           { pe_key = key_name key;
             pe_kind = kind_name (key lsr 16);
             pe_expansions = kr.kr_exp;
             pe_duplicates = kr.kr_dup })
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 by_depth in
  let roots = sum (fun r -> r.pd_roots) in
  let generated = sum (fun r -> r.pd_generated) in
  let duplicates = sum (fun r -> r.pd_duplicates) in
  let dup_top =
    List.fold_left
      (fun best r ->
        match best with
        | Some b when b.pe_duplicates >= r.pe_duplicates -> best
        | _ when r.pe_duplicates > 0 -> Some r
        | _ -> best)
      None by_event
  in
  let worker_edges = Array.to_list (Array.map (fun w -> w.ws_edges) t.ws) in
  let skew =
    let n = List.length worker_edges in
    if n <= 1 then 0.
    else
      let total = List.fold_left ( + ) 0 worker_edges in
      let mean = float total /. float n in
      if mean <= 0. then 0.
      else
        let peak = List.fold_left max 0 worker_edges in
        100. *. (float peak -. mean) /. mean
  in
  { p_roots = roots;
    p_generated = generated;
    p_distinct = roots + generated - duplicates;
    p_duplicates = duplicates;
    p_by_depth = by_depth;
    p_by_event = by_event;
    p_dup_top_source = Option.map (fun r -> r.pe_key) dup_top;
    p_worker_edges = worker_edges;
    p_peak_worker_skew_pct = skew }

let to_json s =
  let open Store.Sjson in
  let int n = Num (float_of_int n) in
  Obj
    [ ("version", int 1);
      ("roots", int s.p_roots);
      ("generated", int s.p_generated);
      ("distinct", int s.p_distinct);
      ("duplicates", int s.p_duplicates);
      ( "dup_top_source",
        match s.p_dup_top_source with Some k -> Str k | None -> Null );
      ("peak_worker_skew_pct", Num s.p_peak_worker_skew_pct);
      ("worker_edges", List (List.map int s.p_worker_edges));
      ( "by_depth",
        List
          (List.map
             (fun r ->
               Obj
                 [ ("depth", int r.pd_depth);
                   ("roots", int r.pd_roots);
                   ("generated", int r.pd_generated);
                   ("duplicates", int r.pd_duplicates);
                   ("sym_canonicalized", int r.pd_sym) ])
             s.p_by_depth) );
      ( "by_event",
        List
          (List.map
             (fun r ->
               Obj
                 [ ("key", Str r.pe_key);
                   ("kind", Str r.pe_kind);
                   ("expansions", int r.pe_expansions);
                   ("duplicates", int r.pe_duplicates) ])
             s.p_by_event) ) ]

let of_json j =
  let open Store.Sjson in
  let int_of name j ~default =
    match Option.bind (member name j) to_int with Some n -> n | None -> default
  in
  match j with
  | Obj _ ->
    let rows name of_row =
      match member name j with
      | Some (List l) -> List.filter_map of_row l
      | _ -> []
    in
    let by_depth =
      rows "by_depth" (fun r ->
          match Option.bind (member "depth" r) to_int with
          | None -> None
          | Some d ->
            Some
              { pd_depth = d;
                pd_roots = int_of "roots" r ~default:0;
                pd_generated = int_of "generated" r ~default:0;
                pd_duplicates = int_of "duplicates" r ~default:0;
                pd_sym = int_of "sym_canonicalized" r ~default:0 })
    in
    let by_event =
      rows "by_event" (fun r ->
          match Option.bind (member "key" r) to_str with
          | None -> None
          | Some key ->
            Some
              { pe_key = key;
                pe_kind =
                  Option.value ~default:"?"
                    (Option.bind (member "kind" r) to_str);
                pe_expansions = int_of "expansions" r ~default:0;
                pe_duplicates = int_of "duplicates" r ~default:0 })
    in
    Ok
      { p_roots = int_of "roots" j ~default:0;
        p_generated = int_of "generated" j ~default:0;
        p_distinct = int_of "distinct" j ~default:0;
        p_duplicates = int_of "duplicates" j ~default:0;
        p_by_depth = by_depth;
        p_by_event = by_event;
        p_dup_top_source = Option.bind (member "dup_top_source" j) to_str;
        p_worker_edges =
          (match member "worker_edges" j with
          | Some (List l) -> List.filter_map to_int l
          | _ -> []);
        p_peak_worker_skew_pct =
          Option.value ~default:0.
            (Option.bind (member "peak_worker_skew_pct" j) to_num) }
  | _ -> Error "profile: not a JSON object"

let write ~dir s =
  Binio.atomic_write (Filename.concat dir file) (fun oc ->
      output_string oc (Store.Sjson.to_string (to_json s)))

let load ~dir =
  let path = Filename.concat dir file in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | raw -> (
    match Store.Sjson.of_string raw with
    | Error m -> Error (Printf.sprintf "%s: %s" path m)
    | Ok j -> (
      match of_json j with
      | Error m -> Error (Printf.sprintf "%s: %s" path m)
      | Ok s -> Ok s))

let pp ppf s =
  Fmt.pf ppf
    "profile: %d roots, %d generated, %d distinct, %d duplicates@,"
    s.p_roots s.p_generated s.p_distinct s.p_duplicates;
  (match s.p_dup_top_source with
  | Some k -> Fmt.pf ppf "top duplicate source: %s@," k
  | None -> ());
  if s.p_peak_worker_skew_pct > 0. then
    Fmt.pf ppf "peak worker skew: %.1f%%@," s.p_peak_worker_skew_pct;
  if s.p_by_event <> [] then begin
    Fmt.pf ppf "by event:@,";
    List.iter
      (fun r ->
        Fmt.pf ppf "  %-20s %8d expanded %8d dup@," r.pe_key r.pe_expansions
          r.pe_duplicates)
      s.p_by_event
  end
