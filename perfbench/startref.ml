(* The reference that set-up times are scaled by. It does what every
   set-up process does apart from the library's work: exec, start the OCaml
   runtime, and touch 2 MB of fresh memory, as allocating a visited store
   does. Its CPU time follows the host's current cost of starting a process
   and of page faults; it links no library code, so no change to the
   library moves it. *)
let () =
  let a = Bigarray.(Array1.create int c_layout) (256 * 1024) in
  Bigarray.Array1.fill a 0;
  Printf.printf "{\"ref_cpu_s\": %.17g}\n" (Sys.time ())
