//! The one stdout writer of `entitlectl` and `repro` (which includes
//! this file): `out!` and `outln!` are `print!` and `println!`, except
//! when the reader stops reading. On a closed pipe (`BrokenPipe`) the
//! output ends and the run goes on to the exit code it would return
//! anyway, where `print!` panics (exit 101); any other write error
//! exits 1, naming it.

use std::io::Write as _;

pub fn write_out(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("cannot write stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`write_out`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write_out(format_args!($($arg)*))
    };
}

/// `println!` through [`write_out`].
macro_rules! outln {
    () => {
        $crate::out::write_out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}
