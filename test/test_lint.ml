(* Lint: no shared mutable state in specs. Spec code runs inside the
   work-stealing engine's worker domains, so a module-level mutable
   binding in a spec is state every worker reads and writes without a
   lock. This scans the spec sources for bindings whose right-hand side
   starts with [Hashtbl.create], [ref] or [Array.make] — on the line of the
   [let], or on the next line when a type annotation pushes it down — and
   that are not local ([let ... in]). Keep such state in the spec state
   value, or domain-local with [Domain.DLS]. *)

let case name f = Alcotest.test_case name `Quick f

(* dune runs the suite from _build/default/test *)
let spec_dirs = [ "../lib/systems"; "../lib/raft_kernel" ]

let mutable_ctor rhs =
  List.exists
    (fun prefix -> String.starts_with ~prefix rhs)
    [ "Hashtbl.create"; "ref "; "Array.make" ]

let is_local rhs = String.ends_with ~suffix:" in" rhs || rhs = "in"

(* The right-hand side of a [let] line, or [None] if it is not one. *)
let let_rhs line =
  let line = String.trim line in
  if not (String.starts_with ~prefix:"let " line) then None
  else
    match String.index_opt line '=' with
    | None -> None
    | Some i ->
      Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))

let offences_in path =
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n' |> Array.of_list
  in
  let found = ref [] in
  Array.iteri
    (fun i line ->
      match let_rhs line with
      | None -> ()
      | Some rhs ->
        let rhs =
          if rhs = "" && i + 1 < Array.length lines then
            String.trim lines.(i + 1)
          else rhs
        in
        if mutable_ctor rhs && not (is_local rhs) then
          found := Printf.sprintf "%s:%d: %s" path (i + 1) line :: !found)
    lines;
  List.rev !found

let test_no_shared_mutable_state () =
  let files =
    List.concat_map
      (fun dir ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".ml")
        |> List.sort compare
        |> List.map (Filename.concat dir))
      spec_dirs
  in
  Alcotest.(check bool) "found the spec sources" true (List.length files > 10);
  match List.concat_map offences_in files with
  | [] -> ()
  | offences ->
    Alcotest.failf "module-level mutable state in specs:\n%s"
      (String.concat "\n" offences)

let suite =
  ( "lint",
    [ case "no module-level mutable state in specs"
        test_no_shared_mutable_state ] )
