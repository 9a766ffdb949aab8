(* lib/store: codec roundtrips and corruption rejection, checkpoint
   save/load, kill-and-resume bit-for-bit equivalence (sequential and
   parallel, cross-engine), disk-spilled frontier equivalence, manifests
   and exit codes. *)

open Sandtable

let case name f = Alcotest.test_case name `Quick f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "sandtable-store" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_corrupt label needle f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Binio.Corrupt" label
  | exception Binio.Corrupt m ->
    Alcotest.(check bool)
      (Fmt.str "%s: %S mentions %S" label m needle)
      true (contains m needle)

(* ---- binio primitives ------------------------------------------------- *)

let test_int_roundtrip () =
  let uints = [ 0; 1; 127; 128; 255; 300; 16383; 16384; 1 lsl 40; max_int ] in
  let b = Binio.sink () in
  List.iter (Binio.uint b) uints;
  (* negative ints survive uint as their 63-bit pattern *)
  Binio.uint b (-1);
  let zints = [ 0; -1; 1; -64; 64; min_int; max_int ] in
  List.iter (Binio.zint b) zints;
  let src = Binio.of_string (Binio.contents b) in
  List.iter
    (fun v -> Alcotest.(check int) (Fmt.str "uint %d" v) v (Binio.read_uint src))
    uints;
  Alcotest.(check int) "uint -1" (-1) (Binio.read_uint src);
  List.iter
    (fun v -> Alcotest.(check int) (Fmt.str "zint %d" v) v (Binio.read_zint src))
    zints;
  Alcotest.(check int) "fully consumed" 0 (Binio.remaining src)

let test_scalar_roundtrip () =
  let b = Binio.sink () in
  Binio.u8 b 0xab;
  Binio.f64 b 3.14159;
  Binio.f64 b (-0.);
  Binio.f64 b infinity;
  Binio.str b "hello\nwith\000nulls";
  Binio.str b "";
  Binio.fixed b "RAW!";
  let src = Binio.of_string (Binio.contents b) in
  Alcotest.(check int) "u8" 0xab (Binio.read_u8 src);
  Alcotest.(check (float 0.)) "f64" 3.14159 (Binio.read_f64 src);
  Alcotest.(check bool) "-0. bits" true
    (Int64.equal (Int64.bits_of_float (-0.))
       (Int64.bits_of_float (Binio.read_f64 src)));
  Alcotest.(check bool) "inf" true (Binio.read_f64 src = infinity);
  Alcotest.(check string) "str" "hello\nwith\000nulls" (Binio.read_str src);
  Alcotest.(check string) "empty str" "" (Binio.read_str src);
  Alcotest.(check string) "fixed" "RAW!" (Binio.read_fixed src 4)

let test_source_bounds () =
  let src = Binio.of_string "ab" in
  expect_corrupt "overread" "truncated" (fun () -> Binio.read_fixed src 3);
  let src = Binio.of_string "\xff" in
  expect_corrupt "unterminated varint" "truncated" (fun () ->
      Binio.read_uint src)

(* ---- file envelope ---------------------------------------------------- *)

let with_envelope_file payload_fill f =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "file.bin" in
      Binio.write_file path ~kind:7 payload_fill;
      f path)

let rewrite path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_envelope_roundtrip () =
  with_envelope_file
    (fun b -> Binio.str b "payload")
    (fun path ->
      Alcotest.(check bool) "looks binary" true (Binio.looks_binary path);
      let src = Binio.read_file path ~kind:7 in
      Alcotest.(check string) "payload" "payload" (Binio.read_str src))

let test_envelope_wrong_kind () =
  with_envelope_file
    (fun b -> Binio.str b "x")
    (fun path ->
      expect_corrupt "kind" "wrong section kind" (fun () ->
          Binio.read_file path ~kind:8))

let test_envelope_truncated () =
  with_envelope_file
    (fun b -> Binio.str b "some payload worth truncating")
    (fun path ->
      let raw = read_raw path in
      rewrite path (String.sub raw 0 (String.length raw - 9));
      expect_corrupt "tail cut" "truncated" (fun () ->
          Binio.read_file path ~kind:7);
      rewrite path (String.sub raw 0 5);
      expect_corrupt "header cut" "truncated" (fun () ->
          Binio.read_file path ~kind:7))

let test_envelope_corrupted () =
  with_envelope_file
    (fun b -> Binio.str b "some payload worth corrupting")
    (fun path ->
      let raw = Bytes.of_string (read_raw path) in
      let mid = Bytes.length raw - 12 in
      Bytes.set raw mid (Char.chr (Char.code (Bytes.get raw mid) lxor 0xff));
      rewrite path (Bytes.to_string raw);
      expect_corrupt "flip" "checksum mismatch" (fun () ->
          Binio.read_file path ~kind:7))

let test_envelope_bad_magic () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "not-binary" in
      rewrite path "just some text, long enough to pass the header check";
      Alcotest.(check bool) "not binary" false (Binio.looks_binary path);
      expect_corrupt "magic" "bad magic" (fun () ->
          Binio.read_file path ~kind:7))

let test_envelope_newer_version () =
  with_envelope_file
    (fun b -> Binio.str b "x")
    (fun path ->
      let raw = Bytes.of_string (read_raw path) in
      Bytes.set raw 4 (Char.chr 99);
      rewrite path (Bytes.to_string raw);
      expect_corrupt "version" "newer" (fun () -> Binio.read_file path ~kind:7))

(* ---- randomized sweeps: varint boundaries + envelope corruption ------- *)

let test_varint_boundary_sweep () =
  (* every power-of-two boundary ±1, both signs, plus min_int/max_int:
     the values where LEB128 grows a byte and zigzag folds the sign *)
  let boundaries =
    List.concat_map
      (fun shift ->
        let p = 1 lsl shift in
        [ p - 1; p; p + 1; -(p - 1); -p; -(p + 1) ])
      (List.init 62 (fun i -> i + 1))
    @ [ 0; 1; -1; min_int; min_int + 1; max_int; max_int - 1 ]
  in
  let b = Binio.sink () in
  List.iter (Binio.zint b) boundaries;
  (* uint takes any int as its 63-bit pattern, negatives included *)
  List.iter (Binio.uint b) boundaries;
  let src = Binio.of_string (Binio.contents b) in
  List.iter
    (fun v ->
      Alcotest.(check int) (Fmt.str "zint %d" v) v (Binio.read_zint src))
    boundaries;
  List.iter
    (fun v ->
      Alcotest.(check int) (Fmt.str "uint %d" v) v (Binio.read_uint src))
    boundaries;
  Alcotest.(check int) "fully consumed" 0 (Binio.remaining src)

let test_random_value_roundtrip () =
  (* seeded, so deterministic: random ints, floats and (arbitrary-byte)
     strings written back-to-back and read back in the same order *)
  let rng = Random.State.make [| 0x5eed |] in
  let ints =
    List.init 500 (fun _ ->
        let v = Random.State.full_int rng max_int in
        if Random.State.bool rng then v else -v)
  in
  let floats =
    List.init 200 (fun _ -> Random.State.float rng 1e18 -. 5e17)
  in
  let strs =
    List.init 200 (fun _ ->
        String.init (Random.State.int rng 64) (fun _ ->
            Char.chr (Random.State.int rng 256)))
  in
  let b = Binio.sink () in
  List.iter (Binio.zint b) ints;
  List.iter (Binio.f64 b) floats;
  List.iter (Binio.str b) strs;
  let src = Binio.of_string (Binio.contents b) in
  List.iter
    (fun v -> Alcotest.(check int) "zint" v (Binio.read_zint src))
    ints;
  List.iter
    (fun v ->
      Alcotest.(check bool) "f64 bits" true
        (Int64.equal (Int64.bits_of_float v)
           (Int64.bits_of_float (Binio.read_f64 src))))
    floats;
  List.iter
    (fun v -> Alcotest.(check string) "str" v (Binio.read_str src))
    strs;
  Alcotest.(check int) "fully consumed" 0 (Binio.remaining src)

(* The envelope hardening property: no single bit-flip anywhere in the
   file may change what decodes — every flip either raises Corrupt or
   (for the one uncovered byte, the version, where a flip can only lower
   it) yields the exact original payload. Exhaustive over a small file,
   randomized over a large one. *)
let flip_survives path ~kind ~expected bit =
  let raw = Bytes.of_string (read_raw path) in
  let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
  Bytes.set raw byte (Char.chr (Char.code (Bytes.get raw byte) lxor mask));
  let flipped = Filename.concat (Filename.dirname path) "flipped.bin" in
  rewrite flipped (Bytes.to_string raw);
  match Binio.read_file flipped ~kind with
  | exception Binio.Corrupt _ -> ()
  | src ->
    let payload = Binio.read_fixed src (Binio.remaining src) in
    if not (String.equal payload expected) then
      Alcotest.failf
        "bit %d (byte %d): decoded a DIFFERENT payload instead of Corrupt"
        bit byte;
    (* only a version flip may slip through the checks undamaged *)
    if byte <> 4 then
      Alcotest.failf "bit %d (byte %d): flip not detected" bit byte

let test_envelope_bitflip_exhaustive () =
  let expected = "short payload" in
  with_envelope_file
    (fun b -> Binio.fixed b expected)
    (fun path ->
      let bits = 8 * String.length (read_raw path) in
      for bit = 0 to bits - 1 do
        flip_survives path ~kind:7 ~expected bit
      done)

let test_envelope_bitflip_random () =
  let rng = Random.State.make [| 0xb17f11b5 |] in
  let expected =
    String.init 4096 (fun _ -> Char.chr (Random.State.int rng 256))
  in
  with_envelope_file
    (fun b -> Binio.fixed b expected)
    (fun path ->
      let bits = 8 * String.length (read_raw path) in
      (* all of the header and trailer, plus random payload positions *)
      for bit = 0 to (8 * 14) - 1 do
        flip_survives path ~kind:7 ~expected bit
      done;
      for bit = bits - (8 * 8) to bits - 1 do
        flip_survives path ~kind:7 ~expected bit
      done;
      for _ = 1 to 256 do
        flip_survives path ~kind:7 ~expected (Random.State.int rng bits)
      done)

let test_envelope_truncation_sweep () =
  (* every proper prefix of the file must be rejected, never decoded *)
  let expected = "truncate me" in
  with_envelope_file
    (fun b -> Binio.fixed b expected)
    (fun path ->
      let raw = read_raw path in
      for keep = 0 to String.length raw - 1 do
        rewrite path (String.sub raw 0 keep);
        expect_corrupt (Fmt.str "prefix %d" keep) "" (fun () ->
            Binio.read_file path ~kind:7)
      done)

(* ---- typed codecs ----------------------------------------------------- *)

let sample_events : Trace.t =
  [ Trace.Timeout { node = 0; kind = "election" };
    Trace.Deliver { src = 0; dst = 1; index = 0; desc = "RV(t1,l0:0)" };
    Trace.Client { node = 0; op = "put:3" };
    Trace.Partition { group = [ 0; 2 ] };
    Trace.Crash { node = 1 };
    Trace.Restart { node = 1 };
    Trace.Heal;
    Trace.Drop { src = 1; dst = 2; index = 1 };
    Trace.Duplicate { src = 2; dst = 0; index = 0 } ]

let test_event_codec () =
  let b = Binio.sink () in
  List.iter (Trace.encode_event b) sample_events;
  let src = Binio.of_string (Binio.contents b) in
  List.iter
    (fun e ->
      let e' = Trace.decode_event src in
      Alcotest.(check bool)
        (Trace.serialize_event e) true (Trace.equal_event e e');
      (* equal_event ignores descs; descs must survive too *)
      match e, e' with
      | Trace.Deliver { desc; _ }, Trace.Deliver { desc = desc'; _ } ->
        Alcotest.(check string) "desc" desc desc'
      | _ -> ())
    sample_events;
  Alcotest.(check int) "consumed" 0 (Binio.remaining src)

let test_counters_codec () =
  let c =
    { Counters.timeouts = 3; requests = 1; crashes = 0; restarts = 4;
      partitions = 2; drops = 9; dups = 128 }
  in
  let b = Binio.sink () in
  Counters.encode b c;
  let c' = Counters.decode (Binio.of_string (Binio.contents b)) in
  Alcotest.(check bool) "counters roundtrip" true (c = c')

(* ---- checkpoints ------------------------------------------------------ *)

let toy_opts = Explorer.default
let snap_ref = ref None

let grab_snapshot layer lazy_snap =
  ignore layer;
  snap_ref := Some (Lazy.force lazy_snap)

let visited_list (snap : Explorer.snapshot) =
  let acc = ref [] in
  snap.snap_visited (fun fp prov d -> acc := (fp, prov, d) :: !acc);
  List.sort compare !acc

let test_checkpoint_roundtrip () =
  with_tmpdir (fun dir ->
      let spec = Toy_spec.spec () in
      let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4 in
      snap_ref := None;
      let (_ : Explorer.result) =
        Explorer.check spec scenario
          { toy_opts with on_layer = Some grab_snapshot }
      in
      let snap =
        match !snap_ref with
        | Some s -> s
        | None -> Alcotest.fail "no layer hook fired"
      in
      let identity = Store.Checkpoint.identity spec scenario toy_opts in
      let stats = Store.Checkpoint.save ~dir ~identity snap in
      Alcotest.(check int) "stats depth" snap.snap_depth stats.ck_depth;
      Alcotest.(check int)
        "stats frontier"
        (List.length snap.snap_frontier)
        stats.ck_frontier;
      Alcotest.(check bool) "nonempty file" true (stats.ck_bytes > 0);
      let snap' = Store.Checkpoint.load ~dir ~identity in
      Alcotest.(check int) "depth" snap.snap_depth snap'.snap_depth;
      Alcotest.(check int) "distinct" snap.snap_distinct snap'.snap_distinct;
      Alcotest.(check int) "generated" snap.snap_generated snap'.snap_generated;
      Alcotest.(check int) "max_depth" snap.snap_max_depth snap'.snap_max_depth;
      Alcotest.(check (list string))
        "frontier order"
        (List.map Fingerprint.to_hex snap.snap_frontier)
        (List.map Fingerprint.to_hex snap'.snap_frontier);
      Alcotest.(check int) "kernel" Fingerprint.kernel_id snap'.snap_kernel;
      Alcotest.(check bool)
        "visited set" true
        (visited_list snap = visited_list snap'))

let test_checkpoint_mismatch () =
  with_tmpdir (fun dir ->
      let spec = Toy_spec.spec () in
      let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:3 in
      snap_ref := None;
      let (_ : Explorer.result) =
        Explorer.check spec scenario
          { toy_opts with on_layer = Some grab_snapshot }
      in
      let snap = Option.get !snap_ref in
      let identity = Store.Checkpoint.identity spec scenario toy_opts in
      let (_ : Store.Checkpoint.stats) =
        Store.Checkpoint.save ~dir ~identity snap
      in
      let other =
        Store.Checkpoint.identity spec scenario
          { toy_opts with symmetry = not toy_opts.symmetry }
      in
      match Store.Checkpoint.load ~dir ~identity:other with
      | _ -> Alcotest.fail "mismatched identity accepted"
      | exception Store.Checkpoint.Mismatch m ->
        Alcotest.(check bool)
          "message explains" true
          (contains m "different exploration" && contains m "symmetry"))

let test_checkpoint_corrupted () =
  with_tmpdir (fun dir ->
      let spec = Toy_spec.spec () in
      let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:3 in
      snap_ref := None;
      let (_ : Explorer.result) =
        Explorer.check spec scenario
          { toy_opts with on_layer = Some grab_snapshot }
      in
      let identity = Store.Checkpoint.identity spec scenario toy_opts in
      let (_ : Store.Checkpoint.stats) =
        Store.Checkpoint.save ~dir ~identity (Option.get !snap_ref)
      in
      let path = Filename.concat dir Store.Checkpoint.file in
      let raw = Bytes.of_string (read_raw path) in
      let mid = Bytes.length raw / 2 in
      Bytes.set raw mid (Char.chr (Char.code (Bytes.get raw mid) lxor 0x55));
      rewrite path (Bytes.to_string raw);
      expect_corrupt "corrupted checkpoint" "checksum mismatch" (fun () ->
          Store.Checkpoint.load ~dir ~identity))

(* ---- kill and resume -------------------------------------------------- *)

let check_violation_equal label (full : Explorer.result)
    (resumed : Explorer.result) =
  (match full.outcome, resumed.outcome with
  | Explorer.Violation fv, Explorer.Violation rv ->
    Alcotest.(check string) (label ^ " invariant") fv.invariant rv.invariant;
    Alcotest.(check int) (label ^ " depth") fv.depth rv.depth;
    Alcotest.(check string) (label ^ " state") fv.state_repr rv.state_repr;
    Alcotest.(check bool)
      (label ^ " trace") true
      (List.length fv.events = List.length rv.events
      && List.for_all2 Trace.equal_event fv.events rv.events)
  | _ -> Alcotest.failf "%s: both runs must violate" label);
  Alcotest.(check (triple int int int))
    (label ^ " counters")
    (full.distinct, full.generated, full.max_depth)
    (resumed.distinct, resumed.generated, resumed.max_depth)

let check_verdict_equal label (full : Explorer.result)
    (resumed : Explorer.result) =
  match full.outcome, resumed.outcome with
  | Explorer.Violation fv, Explorer.Violation rv ->
    Alcotest.(check string) (label ^ " invariant") fv.invariant rv.invariant
  | _ -> Alcotest.failf "%s: both runs must violate" label

let resume_ws ~workers snap spec scenario =
  (Par.Ws_explorer.check ~workers ~resume:snap spec scenario toy_opts).base

(* Interrupt a run on a budget ("the crash"), checkpointing at every layer
   barrier (sequential) or pulse (work stealing), and resume from the last
   checkpoint without the budget. The sequential engine resumes its own
   checkpoint to the exact uninterrupted result. The work-stealing engine
   resumes either engine's checkpoint to the uninterrupted verdict and, on
   an exhaustive space, to the exact uninterrupted totals. *)
let test_kill_and_resume () =
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:8 in
  let checkpointed ~ws spec dir =
    let identity = Store.Checkpoint.identity spec scenario toy_opts in
    let hook = Some (Store.Checkpoint.hook ~dir ~identity ~every:1 ()) in
    let interrupted =
      if ws then
        (* pulse at every batch boundary: the first pulse, before any
           expansion, always writes a checkpoint. Three states stop the
           run before any chain is long enough to violate. *)
        (Par.Ws_explorer.check ~workers:2 ~pulse_every:0.0 spec scenario
           { toy_opts with max_states = Some 3; on_layer = hook })
          .base
      else
        Explorer.check spec scenario
          { toy_opts with max_depth = Some 2; on_layer = hook }
    in
    (match interrupted.outcome with
    | Explorer.Budget_spent -> ()
    | _ -> Alcotest.fail "interrupted run must stop on budget");
    Store.Checkpoint.load ~dir ~identity
  in
  (* a violating space: verdicts *)
  let spec = Toy_spec.spec ~limit:4 () in
  let full = Explorer.check spec scenario toy_opts in
  (match full.outcome with
  | Explorer.Violation _ -> ()
  | _ -> Alcotest.fail "uninterrupted run must violate");
  with_tmpdir (fun dir ->
      let snap = checkpointed ~ws:false spec dir in
      check_violation_equal "seq ckpt, resume seq" full
        (Explorer.check ~resume:snap spec scenario toy_opts);
      List.iter
        (fun workers ->
          check_verdict_equal
            (Fmt.str "seq ckpt, resume ws j%d" workers)
            full (resume_ws ~workers snap spec scenario))
        [ 2; 4 ]);
  with_tmpdir (fun dir ->
      let snap = checkpointed ~ws:true spec dir in
      List.iter
        (fun workers ->
          check_verdict_equal
            (Fmt.str "ws ckpt, resume ws j%d" workers)
            full (resume_ws ~workers snap spec scenario))
        [ 1; 2 ]);
  (* an exhaustive space: exact totals *)
  let spec = Toy_spec.spec () in
  let full = Explorer.check spec scenario toy_opts in
  let totals (r : Explorer.result) =
    (match r.outcome with
    | Explorer.Exhausted -> ()
    | _ -> Alcotest.fail "run must exhaust");
    (r.distinct, r.generated)
  in
  List.iter
    (fun ws ->
      with_tmpdir (fun dir ->
          let snap = checkpointed ~ws spec dir in
          List.iter
            (fun workers ->
              Alcotest.(check (pair int int))
                (Fmt.str "%s ckpt, resume ws j%d totals"
                   (if ws then "ws" else "seq") workers)
                (totals full)
                (totals (resume_ws ~workers snap spec scenario)))
            [ 1; 2; 4 ]))
    [ false; true ]

let test_resume_exhaustive () =
  (* no violation: resumed exploration must still cover the exact space *)
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let full = Explorer.check spec scenario toy_opts in
  let identity = Store.Checkpoint.identity spec scenario toy_opts in
  with_tmpdir (fun dir ->
      let opts =
        { toy_opts with
          max_depth = Some 3;
          on_layer = Some (Store.Checkpoint.hook ~dir ~identity ~every:1 ()) }
      in
      let (_ : Explorer.result) = Explorer.check spec scenario opts in
      let snap = Store.Checkpoint.load ~dir ~identity in
      let resumed = Explorer.check ~resume:snap spec scenario toy_opts in
      (match resumed.outcome with
      | Explorer.Exhausted -> ()
      | _ -> Alcotest.fail "resumed run must exhaust");
      Alcotest.(check (triple int int int))
        "exhaustive counters"
        (full.distinct, full.generated, full.max_depth)
        (resumed.distinct, resumed.generated, resumed.max_depth))

(* ---- fingerprint-kernel migration ------------------------------------- *)

(* An injective stand-in for the old MD5 kernel: digest the real
   fingerprint's raw bytes. The migration path treats legacy fingerprints
   as opaque keys, so any injective scrambling exercises it faithfully. *)
let scramble fp = Fingerprint.of_raw (Digest.string (Fingerprint.to_raw fp))

let legacy_snapshot (snap : Explorer.snapshot) : Explorer.snapshot =
  let entries = ref [] in
  snap.snap_visited (fun fp prov d -> entries := (fp, prov, d) :: !entries);
  let entries = List.rev !entries in
  { snap with
    snap_kernel = 0;
    snap_frontier = List.map scramble snap.snap_frontier;
    snap_visited =
      (fun k ->
        List.iter
          (fun (fp, prov, d) ->
            let prov =
              match prov with
              | Explorer.Root _ as p -> p
              | Explorer.Step { parent; event } ->
                Explorer.Step { parent = scramble parent; event }
            in
            k (scramble fp) prov d)
          entries) }

let test_resume_migrates_legacy_kernel () =
  (* a kernel-0 checkpoint (foreign fingerprints throughout) must resume
     bit-for-bit on the sequential engine and to the same verdict on the
     work-stealing one: load detects the kernel mismatch and rebuilds every
     fingerprint by provenance replay *)
  let spec = Toy_spec.spec ~limit:4 () in
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:8 in
  let full = Explorer.check spec scenario toy_opts in
  let identity = Store.Checkpoint.identity spec scenario toy_opts in
  with_tmpdir (fun dir ->
      snap_ref := None;
      let (_ : Explorer.result) =
        Explorer.check spec scenario
          { toy_opts with
            max_depth = Some 2; on_layer = Some grab_snapshot }
      in
      let (_ : Store.Checkpoint.stats) =
        Store.Checkpoint.save ~dir ~identity
          (legacy_snapshot (Option.get !snap_ref))
      in
      let snap = Store.Checkpoint.load ~dir ~identity in
      Alcotest.(check int) "legacy kernel tag survives save/load" 0
        snap.snap_kernel;
      check_violation_equal "legacy ckpt, resume seq" full
        (Explorer.check ~resume:snap spec scenario toy_opts);
      check_verdict_equal "legacy ckpt, resume ws j2" full
        (resume_ws ~workers:2 snap spec scenario))

let test_migrate_snapshot_is_native () =
  (* migrating then snapshotting must yield exactly the current-kernel
     fingerprints — compare against an untouched snapshot of the same run *)
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  snap_ref := None;
  let (_ : Explorer.result) =
    Explorer.check spec scenario
      { toy_opts with max_depth = Some 3; on_layer = Some grab_snapshot }
  in
  let native = Option.get !snap_ref in
  let migrated =
    Explorer.migrate_snapshot spec scenario toy_opts (legacy_snapshot native)
  in
  Alcotest.(check int) "kernel" Fingerprint.kernel_id migrated.snap_kernel;
  Alcotest.(check (list string))
    "frontier"
    (List.map Fingerprint.to_hex native.snap_frontier)
    (List.map Fingerprint.to_hex migrated.snap_frontier);
  Alcotest.(check bool)
    "visited set" true
    (visited_list native = visited_list migrated)

let test_load_pre_kernel_checkpoint () =
  (* a checkpoint written before the kernel marker existed — the payload
     simply ends after the visited entries — must still load (as kernel 0)
     and resume. Written byte-by-byte here exactly as the old code did. *)
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let full = Explorer.check spec scenario toy_opts in
  let identity = Store.Checkpoint.identity spec scenario toy_opts in
  snap_ref := None;
  let (_ : Explorer.result) =
    Explorer.check spec scenario
      { toy_opts with max_depth = Some 3; on_layer = Some grab_snapshot }
  in
  let snap = Option.get !snap_ref in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir Store.Checkpoint.file in
      Binio.write_file path ~kind:2 (fun b ->
          Binio.str b identity;
          Binio.uint b snap.snap_depth;
          Binio.uint b snap.snap_distinct;
          Binio.uint b snap.snap_generated;
          Binio.uint b snap.snap_max_depth;
          Binio.uint b (List.length snap.snap_frontier);
          List.iter (fun fp -> Binio.fixed b (Fingerprint.to_raw fp))
            snap.snap_frontier;
          Binio.uint b snap.snap_distinct;
          snap.snap_visited (fun fp prov depth ->
              Binio.fixed b (Fingerprint.to_raw fp);
              (match prov with
              | Explorer.Root idx ->
                Binio.u8 b 0;
                Binio.uint b idx
              | Explorer.Step { parent; event } ->
                Binio.u8 b 1;
                Binio.fixed b (Fingerprint.to_raw parent);
                Trace.encode_event b event);
              Binio.uint b depth));
      let snap' = Store.Checkpoint.load ~dir ~identity in
      Alcotest.(check int) "pre-marker file loads as kernel 0" 0
        snap'.snap_kernel;
      Alcotest.(check bool) "visited intact" true
        (visited_list snap = visited_list snap');
      let resumed = Explorer.check ~resume:snap' spec scenario toy_opts in
      Alcotest.(check (triple int int int))
        "resume equivalent"
        (full.distinct, full.generated, full.max_depth)
        (resumed.distinct, resumed.generated, resumed.max_depth))

(* ---- spilled frontier ------------------------------------------------- *)

let test_spill_chunk_corruption () =
  (* a truncated or clobbered chunk file must surface as Binio.Corrupt
     naming the file, not a bare End_of_file/Failure from Marshal *)
  let exercise label damage needle =
    with_tmpdir (fun dir ->
        let factory = Store.Spill.factory ~dir ~window:2 () in
        let q = factory.Explorer.make_frontier () in
        for i = 1 to 40 do
          q.Explorer.fr_push i
        done;
        let chunk =
          match
            List.find_opt
              (fun f -> Filename.check_suffix f ".spill")
              (Array.to_list (Sys.readdir dir))
          with
          | Some f -> Filename.concat dir f
          | None -> Alcotest.fail "no chunk file spilled"
        in
        damage chunk;
        expect_corrupt label needle (fun () ->
            let rec drain () =
              match q.Explorer.fr_pop () with
              | Some _ -> drain ()
              | None -> ()
            in
            drain ());
        q.Explorer.fr_close ())
  in
  exercise "truncated chunk"
    (fun chunk ->
      let raw = read_raw chunk in
      rewrite chunk (String.sub raw 0 (String.length raw / 2)))
    "spill chunk";
  exercise "clobbered chunk"
    (fun chunk -> rewrite chunk "not a marshalled array at all")
    "spill chunk"

let test_spill_equivalence () =
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
  let plain = Explorer.check spec scenario toy_opts in
  with_tmpdir (fun dir ->
      let factory, stats =
        Store.Spill.factory_with_stats ~dir ~window:4 ()
      in
      let spilled =
        Explorer.check spec scenario { toy_opts with frontier = Some factory }
      in
      (match plain.outcome, spilled.outcome with
      | Explorer.Exhausted, Explorer.Exhausted -> ()
      | _ -> Alcotest.fail "both runs must exhaust");
      Alcotest.(check (triple int int int))
        "counters"
        (plain.distinct, plain.generated, plain.max_depth)
        (spilled.distinct, spilled.generated, spilled.max_depth);
      let s = stats () in
      Alcotest.(check bool)
        (Fmt.str "spilled (%d chunks, %d items)" s.sp_chunks s.sp_items)
        true
        (s.sp_chunks > 0 && s.sp_items > 0);
      Alcotest.(check (array string))
        "chunk files cleaned up" [||] (Sys.readdir dir))

(* Regression: the spilled run must match the in-RAM run even when states go
   through a Marshal round-trip that breaks physical sharing with global
   constants (pysyncobj's crash transition aliases [Log.empty]). Caught a
   real bug: sharing-sensitive fingerprints diverged after a spill. *)
let test_spill_sharing_robust () =
  let bugs = Systems.Bug.flags [ "pso3" ] in
  let spec = Systems.Pysyncobj.spec ~bugs () in
  let scenario = Systems.Pysyncobj.default_scenario in
  let plain = Explorer.check spec scenario Explorer.default in
  with_tmpdir (fun dir ->
      let spilled =
        Explorer.check spec scenario
          { Explorer.default with
            frontier = Some (Store.Spill.factory ~dir ~window:64 ()) }
      in
      check_violation_equal "spill after marshal round-trip" plain spilled)

let test_spill_violation_equivalence () =
  let spec = Toy_spec.spec ~limit:3 () in
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
  let plain = Explorer.check spec scenario toy_opts in
  with_tmpdir (fun dir ->
      let spilled =
        Explorer.check spec scenario
          { toy_opts with
            frontier = Some (Store.Spill.factory ~dir ~window:3 ()) }
      in
      check_violation_equal "spill violation" plain spilled)

let test_spill_ops_fifo () =
  with_tmpdir (fun dir ->
      let factory, stats =
        Store.Spill.factory_with_stats ~dir ~window:2 ()
      in
      let q = factory.make_frontier () in
      let n = 50 in
      for i = 1 to n do
        q.fr_push i
      done;
      Alcotest.(check int) "length" n (q.fr_length ());
      let seen = ref [] in
      q.fr_iter (fun x -> seen := x :: !seen);
      Alcotest.(check (list int))
        "iter order" (List.init n (fun i -> i + 1)) (List.rev !seen);
      (* interleave pops and pushes across the spill boundary *)
      let out = ref [] in
      for i = n + 1 to n + 10 do
        (match q.fr_pop () with
        | Some x -> out := x :: !out
        | None -> Alcotest.fail "premature empty");
        q.fr_push i
      done;
      let rec drain () =
        match q.fr_pop () with
        | Some x ->
          out := x :: !out;
          drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check (list int))
        "fifo order" (List.init (n + 10) (fun i -> i + 1)) (List.rev !out);
      Alcotest.(check bool) "spilled" true ((stats ()).sp_chunks > 0);
      q.fr_close ();
      Alcotest.(check (array string)) "cleaned" [||] (Sys.readdir dir))

(* ---- sjson ------------------------------------------------------------ *)

let test_sjson_roundtrip () =
  let v =
    Store.Sjson.Obj
      [ ("s", Store.Sjson.Str "hi \"there\"\n\ttab");
        ("n", Store.Sjson.Num 42.);
        ("f", Store.Sjson.Num 1.5);
        ("b", Store.Sjson.Bool true);
        ("z", Store.Sjson.Null);
        ("l", Store.Sjson.List [ Store.Sjson.Num 1.; Store.Sjson.Str "two"; Store.Sjson.Obj [] ]) ]
  in
  match Store.Sjson.of_string (Store.Sjson.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_sjson_errors () =
  List.iter
    (fun bad ->
      match Store.Sjson.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "tru"; "1 2"; "" ]

(* ---- manifests -------------------------------------------------------- *)

let test_manifest_roundtrip () =
  with_tmpdir (fun root ->
      let dir = Filename.concat root "run-a" in
      let m =
        { (Store.Manifest.make ~system:"toy" ~scenario:"toy-2n"
             ~identity:"abc123" ~engine:"seq" ~workers:1
             ~flags:[ ("bugs", "pso4") ] ())
          with
          Store.Manifest.m_status = Store.Manifest.Done;
          m_outcome = Some "violation: BelowLimit";
          m_distinct = 123;
          m_generated = 456;
          m_max_depth = 7;
          m_duration = 1.25;
          m_checkpoints = 3;
          m_checkpoint = Some "checkpoint.bin";
          m_trace = Some "trace.bin" }
      in
      Store.Manifest.save ~dir m;
      (match Store.Manifest.load ~dir with
      | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | Error e -> Alcotest.failf "load failed: %s" e);
      (* a second, still-running run plus an unreadable one *)
      let dir_b = Filename.concat root "run-b" in
      Store.Manifest.save ~dir:dir_b
        (Store.Manifest.make ~system:"toy" ~scenario:"toy-3n" ~identity:"def"
           ~engine:"par" ~workers:4 ~flags:[] ());
      let dir_c = Filename.concat root "run-c" in
      Unix.mkdir dir_c 0o700;
      rewrite (Filename.concat dir_c Store.Manifest.file) "{ not json";
      match Store.Manifest.list_runs root with
      | [ ("run-a", Ok a); ("run-b", Ok b); ("run-c", Error _) ] ->
        Alcotest.(check bool) "run-a done" true
          (a.Store.Manifest.m_status = Store.Manifest.Done);
        Alcotest.(check bool) "run-b running" true
          (b.Store.Manifest.m_status = Store.Manifest.Running);
        Alcotest.(check string) "pp works" "running"
          (Store.Manifest.status_string b.Store.Manifest.m_status)
      | other ->
        Alcotest.failf "unexpected listing (%d entries)" (List.length other))

(* ---- exit codes ------------------------------------------------------- *)

let test_exit_codes () =
  let violation =
    Explorer.Violation
      { invariant = "X"; events = []; depth = 0; state_repr = "" }
  in
  Alcotest.(check int) "exhausted" 0 (Store.Exit_code.of_outcome Explorer.Exhausted);
  Alcotest.(check int) "budget" 0 (Store.Exit_code.of_outcome Explorer.Budget_spent);
  Alcotest.(check int) "violation" 1 (Store.Exit_code.of_outcome violation);
  Alcotest.(check int) "deadlock" 1
    (Store.Exit_code.of_outcome (Explorer.Deadlock []));
  (* simulation: the toy spec with limit 1 violates on the first event *)
  let clean =
    Simulate.aggregate
      (Simulate.walks (Toy_spec.spec ()) (Toy_spec.scenario ~nodes:2 ~timeouts:2)
         Simulate.default ~seed:1 ~count:5)
  in
  Alcotest.(check int) "sim clean" 0 (Store.Exit_code.of_simulation clean);
  let dirty =
    Simulate.aggregate
      (Simulate.walks
         (Toy_spec.spec ~limit:1 ())
         (Toy_spec.scenario ~nodes:2 ~timeouts:2)
         Simulate.default ~seed:1 ~count:5)
  in
  Alcotest.(check int) "sim violating" 1 (Store.Exit_code.of_simulation dirty);
  let report d =
    { Conformance.rounds_run = 1; total_events = 3; discrepancy = d;
      duration = 0.1 }
  in
  Alcotest.(check int) "conform clean" 0
    (Store.Exit_code.of_conformance (report None));
  Alcotest.(check int) "conform discrepancy" 1
    (Store.Exit_code.of_conformance
       (report
          (Some
             { Conformance.round = 1; events = []; failed_at = 0;
               failure = Conformance.Impl_error "boom" })))

let suite =
  ( "store",
    [ case "binio int roundtrips" test_int_roundtrip;
      case "binio scalar roundtrips" test_scalar_roundtrip;
      case "binio source bounds" test_source_bounds;
      case "envelope roundtrip" test_envelope_roundtrip;
      case "envelope wrong kind" test_envelope_wrong_kind;
      case "envelope truncated" test_envelope_truncated;
      case "envelope corrupted" test_envelope_corrupted;
      case "envelope bad magic" test_envelope_bad_magic;
      case "envelope newer version" test_envelope_newer_version;
      case "trace event codec" test_event_codec;
      case "counters codec" test_counters_codec;
      case "checkpoint roundtrip" test_checkpoint_roundtrip;
      case "checkpoint identity mismatch" test_checkpoint_mismatch;
      case "checkpoint corruption rejected" test_checkpoint_corrupted;
      case "kill and resume, all engines" test_kill_and_resume;
      case "resume to exhaustion" test_resume_exhaustive;
      case "legacy-kernel checkpoint resumes bit-for-bit"
        test_resume_migrates_legacy_kernel;
      case "migrated snapshot equals native" test_migrate_snapshot_is_native;
      case "pre-kernel-marker checkpoint loads" test_load_pre_kernel_checkpoint;
      case "spill chunk corruption surfaces as Corrupt"
        test_spill_chunk_corruption;
      case "spilled frontier equivalence" test_spill_equivalence;
      case "spilled frontier violation" test_spill_violation_equivalence;
      case "spill robust to sharing breaks" test_spill_sharing_robust;
      case "spill ops FIFO across chunks" test_spill_ops_fifo;
      case "sjson roundtrip" test_sjson_roundtrip;
      case "sjson rejects malformed" test_sjson_errors;
      case "manifest roundtrip + listing" test_manifest_roundtrip;
      case "exit codes" test_exit_codes;
      case "varint boundary sweep" test_varint_boundary_sweep;
      case "random value roundtrip" test_random_value_roundtrip;
      case "envelope bit-flip exhaustive" test_envelope_bitflip_exhaustive;
      case "envelope bit-flip random" test_envelope_bitflip_random;
      case "envelope truncation sweep" test_envelope_truncation_sweep ] )
