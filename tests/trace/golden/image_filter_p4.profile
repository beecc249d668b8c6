  line    calls    msgs        bytes  colls   time(ms)      %  source
------------------------------------------------------------------------------
     1                                                         % Image filtering (the MatlabMPI benchmark family): cross-stencil blur,
     2                                                         % unsharp mask, and gradient-magnitude edge blend over an n x n image.
     3                                                         n = 32;
     4                                                         steps = 2;
     5                                                         rand('seed', 42);
     6        1       0            0      0      0.009   0.6%  img = rand(n, n);
     7                                                         tau = 0.08;
     8        0       0            0      0      0.000   0.0%  sh_n = [-1, 0]; sh_s = [1, 0]; sh_w = [0, -1]; sh_e = [0, 1];
     9                                                         for s = 1:steps
    10        2       8         2048      0      0.188  13.2%      north = circshift(img, sh_n);
    11        2       8         2048      0      0.188  13.2%      south = circshift(img, sh_s);
    12        2       0            0      0      0.017   1.2%      west = circshift(img, sh_w);
    13        2       0            0      0      0.017   1.2%      east = circshift(img, sh_e);
    14        2       0            0      0      0.120   8.4%      blur = (north + south + west + east) ./ 8 + img ./ 2;
    15        2       0            0      0      0.069   4.8%      sharp = img + 1.5 .* (img - blur);
    16        2       0            0      0      0.086   6.0%      tone = blur .* blur .* (3 - 2 .* blur);
    17        2       0            0      0      0.051   3.6%      gv = (south - north) ./ 2;
    18        2       0            0      0      0.051   3.6%      gh = (east - west) ./ 2;
    19        2       0            0      0      0.086   6.0%      mag = sqrt(gv .* gv + gh .* gh);
    20        2       0            0      0      0.034   2.4%      edges = mag > tau;
    21        2       0            0      0      0.086   6.0%      out = edges .* sharp + (1 - edges) .* tone;
    22        4       0            0      0      0.069   4.8%      img = max(min(out, 1), 0);
    23                                                         end
    24        1       0            0      1      0.356  25.0%  total = sum(sum(img));
    25                                                         fprintf('imgfilter: n=%d steps=%d checksum=%.9f\n', n, steps, total);
------------------------------------------------------------------------------
 total       30      16         4096      1      1.426 100.0%  
elapsed: 0.001425614545454546 virtual seconds
canonical-sha256: 0a33cc6817060425e2c488251ce175df2b331049b75ee62a0671f8378a08c937
