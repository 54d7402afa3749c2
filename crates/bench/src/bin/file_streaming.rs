//! The §6 file-system claim: "The file system uses multiple threads to
//! do read-ahead and write-behind." Read-ahead depth vs streaming
//! throughput on the RQDX3 model.

#![deny(unsafe_code)]

use firefly_io::fileio::stream_read;
use firefly_io::rqdx3::Rqdx3;

fn main() {
    println!("sequential file read, 32 blocks, consumer = 6 ms/block\n");
    println!("{:>7} {:>12} {:>12} {:>16}", "depth", "elapsed ms", "KB/s", "consumer stalls");
    for depth in [1u32, 2, 4, 8] {
        let mut disk = Rqdx3::new();
        let r = stream_read(&mut disk, 0, 32, depth, 60_000);
        println!(
            "{depth:>7} {:>12.1} {:>12.0} {:>13.1} ms",
            r.cycles as f64 * 100e-6,
            r.kb_per_second(),
            r.stalled_cycles as f64 * 100e-6
        );
    }
    println!(
        "\ndepth 1 is demand paging: the drive idles while the application consumes.\n\
         read-ahead (depth >= 2) keeps the mechanism busy — the win the Topaz file\n\
         system bought with threads."
    );
}
